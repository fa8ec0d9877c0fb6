"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions, class constructors and a few hot
methods of the ``ocf`` modules, records one span per call (name, start, end,
parent span, query id) in memory, and adds computed counts derived from call
arguments and results.  ``install`` rebinds each wrapped function in every
``ocf`` module that imported it by name; ``uninstall`` restores the originals,
so untraced passes run the unmodified program.

Self time of a span is its duration minus the part of it that its direct
children cover (:func:`self_times`).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> public functions traced as spans
FUNCTIONS = {
    "covers": ("single_cover",),
    "tree": (
        "optval_tree", "arbval_tree", "arbval_local", "max_excess_tree",
        "checkcore_tree", "is_stable_tree",
    ),
    "treewidth": (
        "heuristic_decomposition", "validate_decomposition", "optval_tw", "arbval_tw",
        "max_excess_tw", "checkcore_tw", "is_stable_tw",
    ),
    "lp": ("solve_lp",),
    "oracle": (
        "superadditive_cover", "count_structures", "enumerate_structures", "brute_arbval",
        "brute_max_excess", "brute_checkcore", "brute_is_stable",
    ),
    "lbg": ("lbg_optimal", "lbg_core_outcome", "lbg_verify_core", "lbg_best_deviation"),
}
# module -> classes traced at __init__, so the shared class object sees every caller
CLASSES = {
    "covers": ("CoverTable",),
    "tree": ("SingleTable", "PairTable", "KeepTable", "AlphaTable", "VBarTable"),
}
# (module, class, method) -> span name; several classes may share one name
METHODS = {
    ("core", "CharacteristicFunction", "atoms_within"): "core.atoms_within",
    ("core", "InteractionGraph", "neighbors"): "core.neighbors",
    ("core", "InteractionGraph", "simple_edges"): "core.simple_edges",
    ("arbitration", "ConservativeRule", "coalition_payoff"): "arbitration.coalition_payoff",
    ("arbitration", "RefinedRule", "coalition_payoff"): "arbitration.coalition_payoff",
    ("arbitration", "OptimisticRule", "coalition_payoff"): "arbitration.coalition_payoff",
    ("arbitration", "LocalArbitrationRule", "deviation_payoffs"): "arbitration.deviation_payoffs",
    ("arbitration", "SensitiveRule", "deviation_payoffs"): "arbitration.deviation_payoffs",
}
# cutting-plane loops: rounds = direct solve_lp children, the rest is separation
CUTTING_PLANE = ("tree.is_stable_tree", "treewidth.is_stable_tw")
LP_SPAN = "lp.solve_lp"

# counts that must repeat exactly between traced runs of one seed
COUNT_STATS = ("calls", "states", "atom_scans", "rows", "rows_max", "cols_max", "cells",
               "bits_max", "structures", "bag_states", "rounds")


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _count_cover_table(counts, args, kwargs, result) -> None:
    table = args[0]
    states = 1
    for c in table.caps:
        states *= c + 1
    counts["covers.CoverTable.states"] += states
    counts["covers.CoverTable.atom_scans"] += states * len(table.atoms)


def _count_single_cover(counts, args, kwargs, result) -> None:
    counts["covers.single_cover.states"] += len(result[0])


def _count_optval_tw(counts, args, kwargs, result) -> None:
    _, t, c = args
    counts["treewidth.optval_tw.bag_states"] += sum(
        _prod(c[i] + 1 for i in bag) for bag in t.bags
    )


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _count_solve_lp(counts, args, kwargs, sol) -> None:
    lp = args[0]
    rows = len(lp.rows)
    counts["lp.solve_lp.rows"] += rows
    counts["lp.solve_lp.cells"] += rows * lp.n_vars
    counts["lp.solve_lp.rows_max"] = max(counts["lp.solve_lp.rows_max"], rows)
    counts["lp.solve_lp.cols_max"] = max(counts["lp.solve_lp.cols_max"], lp.n_vars)
    bits = _bits((sol.x or ()) + (sol.duals or ()))
    counts["lp.solve_lp.bits_max"] = max(counts["lp.solve_lp.bits_max"], bits)


COUNTERS = {
    "covers.CoverTable": _count_cover_table,
    "covers.single_cover": _count_single_cover,
    "treewidth.optval_tw": _count_optval_tw,
    "lp.solve_lp": _count_solve_lp,
}
# maxima are per pass, not summed across passes
MAX_COUNTS = ("lp.solve_lp.rows_max", "lp.solve_lp.cols_max", "lp.solve_lp.bits_max")


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.query_id = -1
        self.enum_busy = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        """Span around the call; structures and time inside the generator are
        counted as they are pulled."""
        call = self._wrap(name, fn)
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            started = clock()
            gen = call(*args, **kwargs)
            tracer.enum_busy += clock() - started

            def pull():
                while True:
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer.enum_busy += clock() - t0
                        return
                    tracer.enum_busy += clock() - t0
                    counts["oracle.enumerate_structures.structures"] += 1
                    yield item

            return pull()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced callable in every loaded ``ocf`` module."""
        mods = {k: v for k, v in sys.modules.items() if k == "ocf" or k.startswith("ocf.")}
        for mod_name, names in FUNCTIONS.items():
            home = mods[f"ocf.{mod_name}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapper = (
                    self._wrap_generator(span, orig)
                    if fn_name == "enumerate_structures"
                    else self._wrap(span, orig)
                )
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapper)
        for mod_name, names in CLASSES.items():
            home = mods[f"ocf.{mod_name}"]
            for cls_name in names:
                cls = getattr(home, cls_name)
                self._set(cls, "__init__", self._wrap(f"{mod_name}.{cls_name}", cls.__init__))
        for (mod_name, cls_name, meth), span in METHODS.items():
            cls = getattr(mods[f"ocf.{mod_name}"], cls_name)
            self._set(cls, meth, self._wrap(span, vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, names, passes: int) -> dict[str, float]:
        """Per-pass means of the named layer metrics (0 where unused).

        A name is ``<module>.<callable>.<stat>``; the stat picks what is
        reported: ``calls``, ``busy_s``, ``self_s``, ``rounds`` and
        ``separation_s`` come from the spans, any other stat from the counts
        gathered at call time."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        rounds: dict[str, int] = defaultdict(int)
        separation: dict[str, float] = defaultdict(float)
        own = self_times(self.spans)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += own[idx]
            if parent >= 0 and self.spans[parent][0] in CUTTING_PLANE:
                pname = self.spans[parent][0]
                if name == LP_SPAN:
                    rounds[pname] += 1
                else:
                    separation[pname] += end - start
        out: dict[str, float] = {}
        for metric in names:
            layer, _, stat = metric.rpartition(".")
            if metric in self.counts:
                value = self.counts[metric]
                out[metric] = value if metric in MAX_COUNTS else value / passes
            elif stat == "calls":
                out[metric] = calls[layer] / passes
            elif stat == "busy_s":
                if layer == "oracle.enumerate_structures":
                    out[metric] = self.enum_busy / passes
                else:
                    out[metric] = busy[layer] / passes
            elif stat == "self_s":
                out[metric] = self_s[layer] / passes
            elif stat == "rounds":
                out[metric] = rounds[layer] / passes
            elif stat == "separation_s":
                out[metric] = separation[layer] / passes
            else:
                out[metric] = 0
        for metric in out:
            v = out[metric]
            if isinstance(v, float) and v.is_integer() and metric.rpartition(".")[2] in COUNT_STATS:
                out[metric] = int(v)
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, query id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name, start, end, parent, qid in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{qid}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((end - start) - covered)
    return out
