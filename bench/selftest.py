"""Self-tests of the benchmark itself.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They check the self-time arithmetic, that one seed gives byte-identical
instances and the same digest twice, that generating instances calls no OptVal
solver, that a wrong answer injected into the checker is counted as failed,
and that every count metric repeats exactly across two traced runs of one
seed.  Each traced run does one untraced and one traced pass per workload, so
the whole file takes a few minutes.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_arithmetic():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping) and [8, 12]
    # (sticking out); grandchild [4, 5] under the second child
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 6.0, 0, 0],
        ["c", 4.0, 5.0, 2, 0],
        ["d", 8.0, 12.0, 0, 0],
    ]
    own = tracing.self_times(spans)
    # root is covered on [1, 6] and [8, 10]: 7 of 10
    assert own == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_seed_gives_identical_instances_and_digest():
    for name in run.WORKLOADS:
        wl_mod, first = run.fresh_setup(name, 3)
        text = wl_mod.fingerprint(first)
        wl_mod, second = run.fresh_setup(name, 3)
        assert wl_mod.fingerprint(second) == text, name
        wl_mod, other = run.fresh_setup(name, 4)
        assert wl_mod.fingerprint(other) != text, name
    digests = []
    for _ in range(2):
        _, wl = run.fresh_setup("sweep", 3)
        checker = run.Checker(wl)
        checker.verify(run.run_pass(wl))
        assert checker.failed == 0, checker.messages
        digests.append(checker.digest())
    assert digests[0] == digests[1]
    assert digests[0] == run.load_digests()["sweep"]["3"]


def test_inputs_do_not_come_from_solver_witnesses():
    # the optimal structures the stability workload starts from are recorded
    # data, so instance generation must not need any OptVal solver
    wl_mod = run.import_fresh()

    def refuse(*args, **kwargs):
        raise AssertionError("instance generation called a solver")

    saved = [(wl_mod.tree, "optval_tree"), (wl_mod.treewidth, "optval_tw"),
             (wl_mod.oracle, "superadditive_cover")]
    originals = [getattr(mod, name) for mod, name in saved]
    for mod, name in saved:
        setattr(mod, name, refuse)
    try:
        for name in run.WORKLOADS:
            wl_mod.build(name, 3)
    finally:
        for (mod, name), fn in zip(saved, originals):
            setattr(mod, name, fn)


def test_wrong_answer_is_counted_as_failed():
    def corrupt(query, result):
        if query.kind == "optval":
            value, structure = result
            return value + Fraction(1, 7), structure
        return result

    doc = run.measure("sweep", 5, 0.1, traced=False, corrupt=corrupt, min_passes=1)
    assert doc["failed"] > 0
    assert doc["end_to_end"]["failed_ratio"][0] > 0
    assert not doc["correct"]
    clean = run.measure("sweep", 5, 0.1, traced=False, min_passes=1)
    assert clean["failed"] == 0 and clean["correct"], clean["messages"]


def test_counts_repeat_across_traced_runs():
    for name in run.WORKLOADS:
        docs = [run.measure(name, 2, 0.1, traced=True, min_passes=1) for _ in range(2)]
        counts = []
        for doc in docs:
            assert doc["correct"], doc["messages"]
            counts.append({
                metric: value for metric, value in doc["per_layer"].items()
                if metric.rpartition(".")[2] in tracing.COUNT_STATS
            })
        assert counts[0] == counts[1], name
        if name in ("forest", "treewidth"):
            assert counts[0]["lp.solve_lp.calls"] == 0, name


if __name__ == "__main__":
    failures = 0
    for fn in (test_self_time_arithmetic, test_seed_gives_identical_instances_and_digest,
               test_inputs_do_not_come_from_solver_witnesses, test_wrong_answer_is_counted_as_failed,
               test_counts_repeat_across_traced_runs):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    sys.exit(1 if failures else 0)
