#!/usr/bin/env python3
"""Solver benchmark for the ``ocf`` package.

    python3 bench/run.py --workload forest --seed 1 --seconds 30 --trace 0

One process, one closed-loop client, no threads: each query is one call into
the public ``ocf`` API (the LBG chain counts as one), timed with
``time.perf_counter``.  A run repeats whole passes over the workload's seeded
query list, at least three and more while the next would end within
``--seconds``, so every run times the same mix.  Every answer is checked
outside the timed span (witness re-evaluation, cross-lane agreement, and the
answer digest recorded in ``digests.json``); a failed check or a digest
mismatch makes the run exit 1.

Times are reported at a fixed host speed.  A 2-core shared host changes
speed by up to 1.8x for stretches of seconds to minutes, so right before each
query the benchmark times ``reference``, a fixed computation that uses the
standard library only, and scales the query's time by ``REF_MS`` over the
reference's time.  A query's latency is the median of its scaled times over
the passes; ``setup_s`` is scaled by the run's median reference time.
Wall-clock figures are printed beside them (``latency_gmean_wall_ms``,
``host_ref_ms``, ``queries_per_s``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer split of the traced ones
(per-pass means) plus the tracing overhead, and writes the spans to
``bench/out/``.  Metric names come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record`` recomputes the optimal structures the stability workload starts
from (``structures.json``) and the answer digests of every workload for each
input seed (``digests.json``); run it after changing a workload, on solver
code whose answers are trusted.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SPAN_DIR = HERE / "out"
WORKLOADS = ("forest", "treewidth", "stability", "sweep")
SETUP_REPS = 7
# a query's latency is a median over the passes, so it needs at least three
MIN_PASSES = 3
# reported times are scaled to a host on which ``reference`` takes this long
REF_MS = 1.0
# inputs come from seed % DIGEST_SEEDS, so every seed has a recorded digest
DIGEST_SEEDS = 16

sys.path[:0] = [str(HERE), str(SRC)]

import tracing  # noqa: E402


def reference() -> Fraction:
    """A fixed computation shaped like the solvers' inner loops: exact
    ``Fraction`` arithmetic and a best-value table keyed by small tuples.  It
    imports nothing from ``ocf``, so no change to the program moves it."""
    table = {}
    for a in range(12):
        for b in range(12):
            table[(a, b)] = Fraction(7 * a + 1, b + 3)
    best: dict[tuple[int, int], Fraction] = {}
    for (a, b), v in table.items():
        key = (a % 5, b % 4)
        v += Fraction(1, 3)
        if key not in best or v > best[key]:
            best[key] = v
    return sum(best.values(), Fraction(0))


def time_reference() -> float:
    """Seconds ``reference`` takes now; the collector is off meanwhile, so
    garbage left by the program under test is not charged to the reference."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_ref_speed(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured while ``reference`` took ``ref_seconds``, scaled
    to a host on which it takes ``REF_MS``."""
    return seconds * (REF_MS / 1000) / ref_seconds


class SetupError(RuntimeError):
    """The package under test could not be imported from this checkout."""


def _is_reloaded(name: str) -> bool:
    """Whether module ``name`` is imported afresh by each set-up."""
    return name == "ocf" or name.startswith("ocf.") or name == "workloads"


def import_fresh():
    """A fresh import of ``ocf`` and of ``workloads`` from this checkout."""
    for name in [name for name in sys.modules if _is_reloaded(name)]:
        del sys.modules[name]
    try:
        wl_mod = importlib.import_module("workloads")
    except ImportError as exc:
        raise SetupError(f"cannot import ocf from {SRC}: {exc}") from exc
    ocf_file = Path(sys.modules["ocf"].__file__).resolve()
    if SRC.resolve() not in ocf_file.parents:
        raise SetupError(f"ocf imported from {ocf_file}, not from {SRC}")
    return wl_mod


def fresh_setup(workload: str, input_seed: int):
    """One set-up: a fresh import of ``ocf``, instance generation, warm-up."""
    wl_mod = import_fresh()
    wl = wl_mod.build(workload, input_seed)
    for q in wl.warmup:
        q.call()
    return wl_mod, wl


class Checker:
    """Verifies answers outside the timed spans and keeps the failure count.

    The first pass checks every witness and records each result; later passes
    only confirm that a query returned the same result (and re-check it in
    full if it did not).  ``corrupt`` lets the self-tests inject a wrong answer.
    """

    def __init__(self, wl, corrupt=None):
        self.wl = wl
        self.corrupt = corrupt
        self.first: list = [None] * len(wl.queries)
        self.answers: list[str | None] = [None] * len(wl.queries)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.budget_exceeded = 0
        self.messages: list[str] = []

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)

    def verify(self, results) -> list[bool]:
        """Check one pass; returns per-query success."""
        oracle = sys.modules["ocf.oracle"]
        ok_flags = []
        first_pass = self.passes == 0
        self.passes += 1
        for idx, (q, res, err, *_) in enumerate(results):
            self.attempted += 1
            if err is not None:
                if isinstance(err, oracle.BudgetExceededError):
                    self.budget_exceeded += 1
                self._fail(f"{q.label}: raised {type(err).__name__}: {err}")
                ok_flags.append(False)
                continue
            if self.corrupt is not None:
                res = self.corrupt(q, res)
            try:
                if first_pass or res != self.first[idx]:
                    q.check(res)
                answer = q.answer(res)
            except Exception as exc:  # any check error is a failed query
                self._fail(f"{q.label}: {type(exc).__name__}: {exc}")
                ok_flags.append(False)
                continue
            if first_pass:
                self.first[idx] = res
                self.answers[idx] = answer
            elif answer != self.answers[idx]:
                self._fail(f"{q.label}: answer {answer} differs from the first pass {self.answers[idx]}")
                ok_flags.append(False)
                continue
            ok_flags.append(True)
        if first_pass:
            ok_flags = self._agreement(ok_flags)
        return ok_flags

    def _agreement(self, ok_flags: list[bool]) -> list[bool]:
        groups: dict[str, list[int]] = {}
        for idx, q in enumerate(self.wl.queries):
            if q.group is not None and self.answers[idx] is not None:
                groups.setdefault(q.group, []).append(idx)
        for name, members in groups.items():
            if len({self.answers[i] for i in members}) > 1:
                for i in members:
                    if ok_flags[i]:
                        ok_flags[i] = False
                        self._fail(f"{name}: lanes disagree: "
                                   + ", ".join(f"{self.wl.queries[j].label}={self.answers[j]}" for j in members))
        return ok_flags

    def digest(self) -> str:
        text = "\n".join(f"{q.label}={a}" for q, a in zip(self.wl.queries, self.answers))
        return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wl, tracer=None) -> list:
    """Time every query once: (query, result, error, seconds, reference
    seconds just before it)."""
    clock = time.perf_counter
    out = []
    for idx, q in enumerate(wl.queries):
        if tracer is not None:
            tracer.query_id = idx
        err = None
        res = None
        ref = time_reference()
        t0 = clock()
        try:
            res = q.call()
        except Exception as exc:  # a raising query is a failed query, not a crash
            err = exc
        out.append((q, res, err, clock() - t0, ref))
    return out


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive rule)."""
    if len(xs) == 1:
        return xs[0]
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(wl, kinds, passes, checker, setup_s: float):
    """End-to-end metrics of the untraced passes.

    A query's latency is the median over the passes of its time scaled to
    reference speed (``at_ref_speed``); ``latency_gmean_wall_ms`` is the same
    figure from the unscaled times.
    """
    scaled: list[list[float]] = [[] for _ in wl.queries]
    wall: list[list[float]] = [[] for _ in wl.queries]
    refs: list[float] = []
    ok_all = [True] * len(wl.queries)
    verified = 0
    busy = 0.0
    for results, flags in passes:
        for idx, ((_, _, _, dt, ref), ok) in enumerate(zip(results, flags)):
            busy += dt
            verified += ok
            ok_all[idx] = ok_all[idx] and ok
            scaled[idx].append(at_ref_speed(dt, ref))
            wall[idx].append(dt)
            refs.append(ref)
    by_kind: dict[str, list[float]] = {}
    wall_latencies = []
    for q, xs, ws, ok in zip(wl.queries, scaled, wall, ok_all):
        if ok:
            by_kind.setdefault(q.kind, []).append(statistics.median(xs))
            wall_latencies.append(statistics.median(ws))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "queries_per_s": (verified / busy if busy else 0.0, "1/s"),
        "failed_ratio": (checker.failed / checker.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    for kind in kinds:
        xs = by_kind.get(kind)
        if xs:
            metrics[f"{kind}_p50_ms"] = (1000 * statistics.median(xs), "ms")
            metrics[f"{kind}_p90_ms"] = (1000 * quantile(xs, 0.9), "ms")
    # a continuous function of every query, so it neither jumps between the
    # clusters of a mixed pass (as a median can) nor follows one slow query
    # (as the arithmetic mean does); every workload has it
    latencies = [x for xs in by_kind.values() for x in xs]
    metrics["latency_gmean_ms"] = (1000 * statistics.geometric_mean(latencies) if latencies else 0.0, "ms")
    metrics["latency_gmean_wall_ms"] = (
        1000 * statistics.geometric_mean(wall_latencies) if wall_latencies else 0.0, "ms")
    metrics["host_ref_ms"] = (1000 * statistics.median(refs), "ms")
    return metrics, {k: len(v) for k, v in by_kind.items()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def measure(workload: str, seed: int, seconds: float, traced: bool, corrupt=None,
            min_passes: int = MIN_PASSES) -> dict:
    """One benchmark run; returns the result document (see ``main``).

    ``corrupt`` and ``min_passes`` serve the self-tests: a hook that may alter
    each result before it is checked, and a lower pass count for quick runs."""
    env = environment()
    input_seed = seed % DIGEST_SEEDS

    def timed_setup():
        t0 = time.perf_counter()
        out = fresh_setup(workload, input_seed)
        setups.append(time.perf_counter() - t0)
        return out

    def extra_setup():
        # its instances are unused; the passes go on with the modules their
        # queries were built from, which the tracer must also see
        saved = {k: v for k, v in sys.modules.items() if _is_reloaded(k)}
        timed_setup()
        for k in [k for k in sys.modules if _is_reloaded(k)]:
            del sys.modules[k]
        sys.modules.update(saved)

    setups: list[float] = []
    wl_mod, wl = timed_setup()
    checker = Checker(wl, corrupt)
    tracer = tracing.Tracer() if traced else None
    untraced: list = []
    traced_passes: list = []
    started = time.perf_counter()
    while True:
        results = run_pass(wl)
        untraced.append((results, checker.verify(results)))
        if tracer is not None:
            tracer.install()
            try:
                results = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
            traced_passes.append((results, checker.verify(results)))
        # the other set-ups run between the passes, so that their median
        # spans the run rather than one stretch of host speed
        if len(setups) < SETUP_REPS:
            extra_setup()
        elapsed = time.perf_counter() - started
        rounds = len(untraced)
        if rounds >= min_passes and elapsed + elapsed / rounds > seconds:
            break
    while len(setups) < SETUP_REPS:
        extra_setup()
    # the set-ups are spread over the run, so they are scaled by the run's
    # median reference time
    refs = [r[4] for results, _ in untraced for r in results]
    setup_s = at_ref_speed(statistics.median(setups), statistics.median(refs))
    expected = load_digests().get(workload, {}).get(str(input_seed))
    digest = checker.digest()
    doc = {
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed,
        "passes": len(untraced),
        "queries_per_pass": len(wl.queries),
        "digest": digest,
        "digest_expected": expected,
        "environment": env,
        "messages": checker.messages,
        "correct": checker.failed == 0 and digest == expected,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }
    metrics, samples = end_to_end(wl, wl_mod.KINDS, untraced, checker, setup_s)
    doc["end_to_end"] = metrics
    doc["samples"] = samples
    if tracer is not None:
        t_busy = sum(at_ref_speed(r[3], r[4]) for results, _ in traced_passes for r in results)
        u_busy = sum(at_ref_speed(r[3], r[4]) for results, _ in untraced for r in results)
        names = [m["name"] for m in bench_config()["per_layer"]]
        layers = tracer.layer_metrics(names, len(traced_passes))
        layers["trace.overhead_pct"] = 100.0 * (t_busy / len(traced_passes)) / (u_busy / len(untraced)) - 100.0
        layers["oracle.budget_exceeded"] = checker.budget_exceeded / (len(untraced) + len(traced_passes))
        doc["per_layer"] = layers
        doc["trace_passes"] = len(traced_passes)
        doc["tracer"] = tracer
    return doc


def bench_config() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def record() -> None:
    """Record the optimal structures of the stability workload's games, then
    the answer digests of every workload for every input seed."""
    record_structures()
    record_digests()


def record_structures() -> None:
    wl_mod = import_fresh()
    found: dict[str, str] = {}

    def optimum(name, g):
        cs = wl_mod.solver_optimum(name, g)
        found[name] = wl_mod.encode_structure(cs)
        return cs

    wl_mod.stability(0, optimum)
    wl_mod.STRUCTURES.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")


def record_digests() -> None:
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for input_seed in range(DIGEST_SEEDS):
            _, wl = fresh_setup(workload, input_seed)
            checker = Checker(wl)
            checker.verify(run_pass(wl))
            if checker.failed:
                raise SystemExit(f"{workload} seed {input_seed}: {checker.messages}")
            table[workload][str(input_seed)] = checker.digest()
            print(workload, input_seed, table[workload][str(input_seed)], flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite structures.json and digests.json")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        config = bench_config()
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, FileNotFoundError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    for msg in doc["messages"]:
        print(f"FAILED {msg}")
    if doc["digest_expected"] is None:
        print(f"FAILED no recorded digest for {args.workload} input seed {doc['input_seed']}")
    elif doc["digest"] != doc["digest_expected"]:
        print(f"FAILED digest {doc['digest']} != recorded {doc['digest_expected']}")
    print(json.dumps({k: doc[k] for k in ("workload", "seed", "input_seed", "passes",
                                           "queries_per_pass", "digest", "environment")}))
    for name, (value, unit) in doc["end_to_end"].items():
        n = doc["samples"].get(name.split("_p")[0]) if name.endswith("_ms") else None
        extra = f"  (n={n})" if n is not None else ""
        print(f"{name:28s} {value:14.6f} {unit}{extra}")
    if args.trace:
        metrics = {m["name"]: {"value": doc["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in config["per_layer"]}
        for name, entry in metrics.items():
            print(f"{name:45s} {entry['value']!s:>18} {entry['unit']}")
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        doc["tracer"].write(span_file)
        print(f"spans written to {span_file.relative_to(HERE.parent)}")
    else:
        metrics = {m["name"]: {"value": doc["end_to_end"][m["name"]][0], "unit": m["unit"]}
                   for m in config["end_to_end"]}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
