"""Seeded instances, query lists and answer checks for the four workloads.

Every instance is generated inside this file with ``random.Random``, from the
run's seed or from fixed seeds; nothing is imported from ``tests/``, so
editing a test cannot shift the benchmark.  The optimal structures the
stability workload starts from are data, read from ``structures.json``.

A workload is a list of :class:`Query` objects.  ``call`` is the timed part:
one public ``ocf`` entry point (or the LBG chain), looked up through its module
at call time so a tracer that rebinds module attributes sees it.  ``check``
re-evaluates the returned witness with the generic evaluators and runs outside
the timed span; ``answer`` keeps only the mathematically unique part of the
result (optimal value, maximal excess, stable or none) for the digest, since
witnesses may legitimately change between commits.

Sizes and shapes follow fixed schedules; the seed picks values, outcomes and
structures.  That keeps the mix, and so each run's timing profile, the same
from seed to seed.  Generating instances calls one solver, whose answer
cannot legitimately change: the sweep sizes its enumeration vectors by
``count_structures``, a count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import ocf.arbitration as arbitration
import ocf.core as core
import ocf.lbg as lbg
import ocf.oracle as oracle
import ocf.tree as tree
import ocf.treewidth as treewidth

KINDS = ("optval", "arbval", "checkcore", "is_stable", "lbg", "oracle")

RULES4 = (
    arbitration.CONSERVATIVE,
    arbitration.REFINED,
    arbitration.OPTIMISTIC,
    arbitration.OPTIMISTIC_CLAMPED,
)
RULES5 = RULES4 + (arbitration.SENSITIVE,)
# desk-scale oracle budget; sweep games stay far inside it
ORACLE_BUDGET = oracle.EnumerationBudget(max_agents=8, max_weight=4, max_structures=10**7)
ENUM_CAP = 1_000  # structure-count cap for the exhaustive enumeration leg
ENUM_BOX = 48  # cap on prod(c_i + 1), which bounds count_structures' own table
F = Fraction
# optimal structures of the stability workload's games
STRUCTURES = Path(__file__).resolve().parent / "structures.json"


class CheckFailed(AssertionError):
    """A returned answer did not survive re-evaluation."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Query:
    kind: str
    label: str
    call: Callable[[], Any]
    answer: Callable[[Any], str]
    check: Callable[[Any], None]
    # queries sharing a group must return the same answer (cross-lane agreement)
    group: str | None = None


@dataclass
class Workload:
    name: str
    queries: list[Query] = field(default_factory=list)
    # one query per kind, run untimed before measuring
    warmup: list[Query] = field(default_factory=list)

    def add(self, q: Query) -> None:
        self.queries.append(q)


# ---------------------------------------------------------------------------
# instance generators


def c9_game(rng: random.Random, n: int, w: int, edges, pair: int = 6, solo: int = 3) -> core.GameDef:
    """Criterion-9 shape: ``pair`` distinct random entries per edge, ``solo``
    per agent, uniform weight ``w``.  Distinct draws keep the number of atoms,
    and so the DP work, the same on every seed."""
    entries = {}
    for a, b in sorted(tuple(sorted(e)) for e in edges):
        for x in rng.sample(range(w * w), pair):
            entries[((a, b), (1 + x // w, 1 + x % w))] = F(rng.randint(1, 100))
    for i in range(n):
        for x in rng.sample(range(1, w + 1), min(solo, w)):
            entries[((i,), (x,))] = F(rng.randint(1, 40))
    cf = core.make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    return core.GameDef(
        n=n, weights=(w,) * n, charfun=cf, interaction=core.InteractionGraph.from_pairs(n, edges)
    )


def sparse_game(rng: random.Random, n: int, weights, edges, density: float = 0.5, vmax: int = 10) -> core.GameDef:
    """Sparse random value table over the given graph (the shape of the
    repository's random test games): each solo and pair entry is present with
    probability ``density``."""
    entries = {}
    for i in range(n):
        for w in range(1, weights[i] + 1):
            if rng.random() < density:
                entries[((i,), (w,))] = F(rng.randint(1, vmax))
    for a, b in sorted(tuple(sorted(e)) for e in edges):
        for wa in range(1, weights[a] + 1):
            for wb in range(1, weights[b] + 1):
                if rng.random() < density:
                    entries[((a, b), (wa, wb))] = F(rng.randint(1, vmax))
    cf = core.make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    return core.GameDef(
        n=n, weights=tuple(weights), charfun=cf, interaction=core.InteractionGraph.from_pairs(n, edges)
    )


def tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def fixed_tree_edges(n: int) -> list[tuple[int, int]]:
    """A random tree that depends on n only: a tree's shape sets the DP's
    merge order and depth, and with it the cost, so it is not left to the seed."""
    return tree_edges(random.Random(n), n)


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def fan_decomposition(n: int):
    """Width-2 decomposition of the cycle 0..n-1: bags {0, i, i+1} in a chain."""
    bags = tuple(frozenset((0, i, i + 1)) for i in range(1, n - 1))
    edges = tuple((k, k + 1) for k in range(len(bags) - 1))
    return treewidth.TreeDecomposition(bags=bags, edges=edges, root=0)


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                out.append((v, v + 1))
            if r + 1 < rows:
                out.append((v, v + cols))
    return out


def random_structure(rng: random.Random, g: core.GameDef):
    """Feasible pairwise-shaped structure: supports are vertices or edges.

    Always n placement attempts (the test generators draw 0..2n), so the
    structure size, and with it the deviation solvers' cost, varies less
    from seed to seed."""
    n = g.n
    remaining = list(g.weights)
    cs = []
    supports = [(i,) for i in range(n)] + list(g.interaction.simple_edges())
    for _ in range(n):
        sup = rng.choice(supports)
        if any(remaining[i] == 0 for i in sup):
            continue
        c = [0] * n
        for i in sup:
            c[i] = rng.randint(1, remaining[i])
        for i in sup:
            remaining[i] -= c[i]
        cs.append(tuple(c))
    return tuple(cs)


def _outcome(rng: random.Random, g: core.GameDef, cs) -> core.Outcome:
    """Outcome over ``cs`` with a random exact split of each coalition's value."""
    imp = []
    for c in cs:
        v = g.charfun.value(c)
        sup = sorted(core.support(c))
        x = [F(0)] * g.n
        if sup and v > 0:
            cuts = sorted(rng.randint(0, 2 * v.numerator) for _ in range(len(sup) - 1))
            prev = 0
            for i, cut in zip(sup, cuts + [2 * v.numerator]):
                x[i] = F(cut - prev, 2 * v.denominator)
                prev = cut
        imp.append(tuple(x))
    return core.Outcome(structure=tuple(cs), imputation=tuple(imp))


def random_outcome(rng: random.Random, g: core.GameDef) -> core.Outcome:
    """Random pairwise structure plus a random exact split of each value."""
    return _outcome(rng, g, random_structure(rng, g))


def edge_outcome(rng: random.Random, g: core.GameDef) -> core.Outcome:
    """Pairwise outcome of fixed shape: one coalition per edge, with each end
    giving a random share of its weight, then one solo coalition per agent
    with what is left; values split at random.  The shape fixes how many
    coalitions every deviation touches, so the deviation solvers' cost
    follows the instance size rather than the seed."""
    n = g.n
    remaining = list(g.weights)
    edges = g.interaction.simple_edges()
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    cs = []
    for a, b in edges:
        c = [0] * n
        for i in (a, b):
            c[i] = min(remaining[i], rng.randint(1, max(1, g.weights[i] // (degree[i] + 1))))
        if c[a] and c[b]:
            remaining[a] -= c[a]
            remaining[b] -= c[b]
            cs.append(tuple(c))
    for i in range(n):
        if remaining[i] > 0:
            c = [0] * n
            c[i] = remaining[i]
            cs.append(tuple(c))
    return _outcome(rng, g, cs)


def random_lbg(rng: random.Random, n: int, tasks: int) -> lbg.LbgInstance:
    """Random bottleneck instance with denominators up to 4."""
    weights = [F(rng.randint(1, 6), rng.choice([1, 2, 4])) for _ in range(n)]
    rows = []
    seen = set()
    for _ in range(tasks):
        agents = frozenset(rng.sample(range(n), rng.randint(1, n)))
        if agents in seen:
            continue
        seen.add(agents)
        rows.append((agents, F(rng.randint(0, 8), rng.choice([1, 2, 4]))))
    return lbg.make_lbg_instance(n, weights, rows)


# ---------------------------------------------------------------------------
# queries and their checks


def _frac(v) -> str:
    return str(Fraction(v))


def optval_query(label: str, g, c, lane: str, group: str | None = None) -> Query:
    """OptVal on the tree lane or on the treewidth lane with min-fill inside."""
    if lane == "tree":
        call = lambda: tree.optval_tree(g, c)
    else:
        call = lambda: treewidth.optval_tw(g, treewidth.heuristic_decomposition(g.interaction), c)

    def check(res) -> None:
        value, cs = res
        expect(core.structure_weight(cs, g.n) == tuple(c), f"{label}: witness weight differs from c")
        expect(core.structure_value(g, cs) == value, f"{label}: witness value differs")

    return Query("optval", label, call, lambda r: _frac(r[0]), check, group)


def _deviation_check(label, g, rule, o, S, value, dev, post) -> None:
    total = arbitration.deviation_total(g, o, S, dev, rule, post)
    expect(total == value, f"{label}: deviation_total {total} != reported {value}")


def arbval_query(label: str, g, rule, o, S, lane: str, group: str | None = None) -> Query:
    S = frozenset(S)
    if lane == "tree":
        call = lambda: tree.arbval_tree(g, rule, o, S, with_witness=True)
    elif lane == "local":
        call = lambda: tree.arbval_local(g, rule, o, S, with_witness=True)
    else:
        call = lambda: treewidth.arbval_tw(g, rule, o, S, with_witness=True)

    def check(res) -> None:
        value, dev, post = res
        _deviation_check(label, g, rule, o, S, value, dev, post)

    return Query("arbval", label, call, lambda r: _frac(r[0]), check, group)


def _witness_arbval(g, rule, o, S):
    """ArbVal with witness on whichever DP lane handles S."""
    graph = g.interaction
    sub = core.InteractionGraph.from_pairs(
        g.n, [(a, b) for a, b in graph.simple_edges() if a in S and b in S]
    )
    if sub.is_forest() or len(S) <= 4:
        return tree.arbval_tree(g, rule, o, S, with_witness=True)
    return treewidth.arbval_tw(g, rule, o, S, with_witness=True)


def _excess_check(label, g, rule, o, S, excess) -> None:
    value, dev, post = _witness_arbval(g, rule, o, S)
    _deviation_check(label, g, rule, o, S, value, dev, post)
    got = value - o.payoff_to_set(S)
    expect(got == excess, f"{label}: set {sorted(S)} has excess {got}, reported {excess}")


def checkcore_query(label: str, g, rule, o, lane: str) -> Query:
    if lane == "tree":
        call = lambda: tree.checkcore_tree(g, rule, o)
    else:
        call = lambda: treewidth.checkcore_tw(g, rule, o, treewidth.heuristic_decomposition(g.interaction))

    def check(res) -> None:
        if res is not None:
            expect(res.excess > 0, f"{label}: violation with non-positive excess")
            _excess_check(label, g, rule, o, res.agents, res.excess)

    return Query("checkcore", label, call, lambda r: "core" if r is None else _frac(r.excess), check)


def max_excess_query(label: str, g, rule, o, lane: str, group: str) -> Query:
    if lane == "tree":
        call = lambda: tree.max_excess_tree(g, rule, o)
    else:
        call = lambda: treewidth.max_excess_tw(g, rule, o, treewidth.heuristic_decomposition(g.interaction))

    def check(res) -> None:
        excess, S = res
        _excess_check(label, g, rule, o, S, excess)

    return Query("checkcore", label, call, lambda r: _frac(r[0]), check, group)


def _stable_check(label, g, rule, cs, imputation, second_lane: Callable[[core.Outcome], Any]) -> None:
    if imputation is None:
        return
    o = core.Outcome(structure=cs, imputation=imputation)
    problems = core.validate_outcome(o, g)
    if rule is arbitration.OPTIMISTIC:
        # Unclamped optimistic payments can be negative, so core stability does
        # not imply full-endowment individual rationality, and no lane (the
        # oracle included) imposes it; every other invariant still applies.
        problems = [p for p in problems if not p.startswith("individual rationality")]
    expect(not problems, f"{label}: invalid imputation: {problems[:2]}")
    expect(second_lane(o) is None, f"{label}: second lane finds a core violation")


def is_stable_query(label: str, g, rule, cs, lane: str) -> Query:
    if lane == "tree":
        call = lambda: tree.is_stable_tree(g, rule, cs)
        second = lambda o: treewidth.checkcore_tw(g, rule, o, treewidth.heuristic_decomposition(g.interaction))
        kind = "is_stable"
    elif lane == "tw":
        # cycles only: the second lane is CheckCore over a fan decomposition,
        # whose bags differ from min-fill's (the oracle is too slow at n = 8)
        call = lambda: treewidth.is_stable_tw(g, rule, cs, treewidth.heuristic_decomposition(g.interaction))
        second = lambda o: treewidth.checkcore_tw(g, rule, o, fan_decomposition(g.n))
        kind = "is_stable"
    else:
        call = lambda: oracle.brute_is_stable(g, rule, cs, ORACLE_BUDGET)
        second = lambda o: tree.checkcore_tree(g, rule, o)
        kind = "oracle"
    return Query(
        kind,
        label,
        call,
        lambda r: "none" if r is None else "stable",
        lambda r: _stable_check(label, g, rule, cs, r, second),
    )


def cover_query(label: str, g, c, group: str) -> Query:
    def check(res) -> None:
        value, cs = res
        expect(core.structure_weight(cs, g.n) == tuple(c), f"{label}: witness weight differs from c")
        expect(core.structure_value(g, cs) == value, f"{label}: witness value differs")

    return Query(
        "oracle", label, lambda: oracle.superadditive_cover(g, c, ORACLE_BUDGET),
        lambda r: _frac(r[0]), check, group,
    )


def _enumerate_best(g, c):
    best, best_cs = F(0), ()
    for cs in oracle.enumerate_structures(g, c, ORACLE_BUDGET):
        v = core.structure_value(g, cs)
        if v > best:
            best, best_cs = v, cs
    return best, best_cs


def enumerate_query(label: str, g, c, group: str) -> Query:
    def check(res) -> None:
        value, cs = res
        expect(core.vec_leq(core.structure_weight(cs, g.n), tuple(c)), f"{label}: structure exceeds c")
        expect(core.structure_value(g, cs) == value, f"{label}: structure value differs")

    return Query("oracle", label, lambda: _enumerate_best(g, c), lambda r: _frac(r[0]), check, group)


def brute_arbval_query(label: str, g, rule, o, S, group: str | None) -> Query:
    S = frozenset(S)

    def check(res) -> None:
        value, (dev, post) = res
        _deviation_check(label, g, rule, o, S, value, dev, post)

    return Query(
        "oracle", label, lambda: oracle.brute_arbval(g, rule, o, S, ORACLE_BUDGET),
        lambda r: _frac(r[0]), check, group,
    )


def brute_max_excess_query(label: str, g, rule, o, group: str) -> Query:
    def check(res) -> None:
        excess, S = res
        value, (dev, post) = oracle.brute_arbval(g, rule, o, S, ORACLE_BUDGET)
        _deviation_check(label, g, rule, o, S, value, dev, post)
        expect(value - o.payoff_to_set(S) == excess, f"{label}: reported set misses the excess")

    return Query(
        "oracle", label, lambda: oracle.brute_max_excess(g, rule, o, ORACLE_BUDGET),
        lambda r: _frac(r[0]), check, group,
    )


def _lbg_chain(inst):
    sol = lbg.lbg_optimal(inst, cross_check=True)
    out = lbg.lbg_core_outcome(inst, sol)
    verdict = lbg.lbg_verify_core(inst, out, F(1, 2))
    return sol, out, verdict


def lbg_query(label: str, inst) -> Query:
    def check(res) -> None:
        sol, out, verdict = res
        expect(verdict is None, f"{label}: dual-priced outcome left the optimistic core")
        dual = sum((w * d for w, d in zip(inst.weights, sol.duals)), start=F(0))
        expect(dual == sol.value, f"{label}: strong duality fails")
        paid = sum((out.payoff_to_agent(i) for i in range(inst.n)), start=F(0))
        expect(paid == sol.value, f"{label}: outcome pays {paid}, optimum is {sol.value}")
        expect(not lbg.validate_lbg_outcome(out), f"{label}: invalid outcome")

    return Query(
        "lbg", label, lambda: _lbg_chain(inst),
        lambda r: f"{_frac(r[0].value)}/{'core' if r[2] is None else 'deviation'}", check,
    )


# ---------------------------------------------------------------------------
# workloads

def _ball(g, start: int, size: int) -> frozenset[int]:
    """Connected set: the first ``size`` agents of a breadth-first search."""
    graph = g.interaction
    seen = [start]
    i = 0
    while len(seen) < size and i < len(seen):
        for u in graph.neighbors(seen[i]):
            if u not in seen and len(seen) < size:
                seen.append(u)
        i += 1
    return frozenset(seen)


# (shape, n, W) per forest instance; one criterion-9 path rides along per pass
FOREST_SCHEDULE = (("path", 38, 6), ("tree", 30, 8), ("path", 24, 10), ("tree", 20, 12))
# criterion 9's own path has W = 20 and takes 1.3 s, a third of a pass; W = 12
# keeps a run to many short passes, whose best readings host drift disturbs least
FOREST_C9_PATH = (50, 12)


def _rule_pair(k: int):
    """Two of the four local rules for instance k; over four instances every
    rule runs twice."""
    return RULES4[k % 4], RULES4[(k + 2) % 4]


def forest(seed: int) -> Workload:
    """Tree lane at criterion-9 shape: OptVal, ArbVal and CheckCore.

    Tree shapes and the deviating sets (connected balls from fixed agents)
    depend on the schedule only; the seed picks values and the outcome."""
    rng = random.Random(seed)
    wl = Workload("forest")
    for k, (shape, n, w) in enumerate(FOREST_SCHEDULE):
        edges = path_edges(n) if shape == "path" else fixed_tree_edges(n)
        g = c9_game(rng, n, w, edges)
        o = edge_outcome(rng, g)
        wl.add(optval_query(f"f{k}.optval", g, g.weights, "tree"))
        # one rule per query, so that a pass stays short; over the four
        # instances each set runs under every rule and so does CheckCore
        sets = (_ball(g, n // 3, n // 4), _ball(g, 0, n // 2))
        for s_idx, S in enumerate(sets):
            rule = RULES4[(k + s_idx) % 4]
            wl.add(arbval_query(f"f{k}.arbval.s{s_idx}.{rule.name}", g, rule, o, S, "tree"))
        rule = RULES4[k % 4]
        wl.add(checkcore_query(f"f{k}.checkcore.{rule.name}", g, rule, o, "tree"))
    n, w = FOREST_C9_PATH
    g = c9_game(rng, n, w, path_edges(n))
    wl.add(optval_query("f.c9path.optval", g, g.weights, "tree"))
    return _with_warmup(wl)


# (shape, size, W): cycles, cycles with chords, 2 x k and 3 x k grids
TW_OPT_SCHEDULE = (
    ("cycle", 12, 5), ("chord", 14, 5), ("chord", 18, 4),
    ("grid2", 6, 4), ("grid3", 4, 3),
)
# criterion 9's own cycle has n = 30 and takes 4.6 s, too long to repeat within
# a run; n only multiplies the work, while W sets the (W + 1)^3 bag boxes, so W
# stays
TW_C9_CYCLE = (6, 10)
TW_CORE_SCHEDULE = ((8, 3), (10, 3), (12, 3), (8, 4))


def _tw_graph(shape: str, size: int) -> tuple[int, list[tuple[int, int]]]:
    if shape == "cycle":
        return size, cycle_edges(size)
    if shape == "chord":
        # two crossing chords at fixed places: random ones change the min-fill
        # width from seed to seed, and with it the cost by a factor of W + 1
        return size, cycle_edges(size) + [(0, size // 2), (size // 4, (3 * size) // 4)]
    rows = 2 if shape == "grid2" else 3
    return rows * size, grid_edges(rows, size)


def treewidth_wl(seed: int) -> Workload:
    """Treewidth lane at width 2-3, min-fill inside every query."""
    rng = random.Random(seed)
    wl = Workload("treewidth")
    for k, (shape, size, w) in enumerate(TW_OPT_SCHEDULE):
        n, edges = _tw_graph(shape, size)
        g = c9_game(rng, n, w, edges, pair=5, solo=2)
        o = edge_outcome(rng, g)
        wl.add(optval_query(f"t{k}.optval", g, g.weights, "tw"))
        # around agent 0 it holds a cycle on chord and grid graphs, so the
        # induced subgraph has width above 1 on every seed
        arc = _ball(g, 0, max(4, (2 * n) // 3))
        scattered = frozenset(rng.sample(range(n), n // 3))
        for rule in RULES4:
            wl.add(arbval_query(f"t{k}.arbval.arc.{rule.name}", g, rule, o, arc, "tw"))
        wl.add(arbval_query(f"t{k}.arbval.scattered", g, RULES4[k % 4], o, scattered, "tw"))
    for k, (n, w) in enumerate(TW_CORE_SCHEDULE):
        g = c9_game(rng, n, w, cycle_edges(n), pair=5, solo=2)
        o = edge_outcome(rng, g)
        for rule in _rule_pair(k):
            wl.add(checkcore_query(f"tc{k}.checkcore.{rule.name}", g, rule, o, "tw"))
    n, w = TW_C9_CYCLE
    g = c9_game(rng, n, w, cycle_edges(n), pair=5, solo=1)
    wl.add(optval_query("t.c9cycle.optval", g, g.weights, "tw"))
    return _with_warmup(wl)


# (shape, n, W) for is_stable_tree; every instance runs two rules on an optimal
# structure and on a random pairwise one, and over the instances every rule runs
STAB_TREE_SCHEDULE = tuple(
    (shape, n, 3) for n in (6, 7, 8, 7) for shape in ("path", "tree")
)
STAB_TW_SCHEDULE = ((6, 2), (7, 2), (6, 3), (8, 2))
# n = 4 only: one n = 5 system ranges from 0.05 s to 3.4 s across seeds
STAB_BRUTE_SCHEDULE = (4,) * 8


def stability(seed: int, optimum: Callable[[str, core.GameDef], Any] | None = None) -> Workload:
    """Is-Stable on tree and treewidth lanes, and the brute LP system.

    The games are fixed: each is drawn from a generator seeded by its own
    name.  The number of cutting-plane rounds on an optimal structure varies
    tenfold between games of one size, and with a dozen games per pass that
    moved the workload's latency by about 10% from seed to seed.  The seed picks
    the random structures, half of the queries.  ``optimum(name, g)`` gives
    the optimal structure of game ``name``; by default it is the one recorded
    in ``structures.json``, so the inputs do not depend on which optimum the
    solvers under test happen to pick."""
    rng = random.Random(seed)
    optimum = optimum or recorded_optimum()
    wl = Workload("stability")
    for k, (shape, n, w) in enumerate(STAB_TREE_SCHEDULE):
        edges = path_edges(n) if shape == "path" else fixed_tree_edges(n)
        g = sparse_game(random.Random(f"s{k}"), n, (w,) * n, edges)
        for tag, cs in (("opt", optimum(f"s{k}", g)), ("rand", random_structure(rng, g))):
            for rule in _rule_pair(k):
                wl.add(is_stable_query(f"s{k}.{tag}.{rule.name}", g, rule, cs, "tree"))
    for k, (n, w) in enumerate(STAB_TW_SCHEDULE):
        g = sparse_game(random.Random(f"st{k}"), n, (w,) * n, cycle_edges(n))
        for tag, cs in (("opt", optimum(f"st{k}", g)), ("rand", random_structure(rng, g))):
            for rule in _rule_pair(k):
                wl.add(is_stable_query(f"st{k}.{tag}.{rule.name}", g, rule, cs, "tw"))
    for k, n in enumerate(STAB_BRUTE_SCHEDULE):
        g = sparse_game(random.Random(f"sb{k}"), n, (2,) * n, path_edges(n))
        for tag, cs in (("opt", optimum(f"sb{k}", g)), ("rand", random_structure(rng, g))):
            rule = RULES4[k % 2]
            wl.add(is_stable_query(f"sb{k}.{tag}.{rule.name}", g, rule, cs, "brute"))
    return _with_warmup(wl)


def solver_optimum(name: str, g: core.GameDef):
    """An optimal structure as the solvers find it (used only to record
    ``structures.json``): the treewidth lane for cycles, else the tree lane."""
    if name.startswith("st"):
        return treewidth.optval_tw(g, treewidth.heuristic_decomposition(g.interaction), g.weights)[1]
    return tree.optval_tree(g, g.weights)[1]


def encode_structure(cs) -> str:
    """A structure as space-separated digit strings, one per coalition
    (weights stay below 10)."""
    if not all(0 <= w <= 9 for c in cs for w in c):
        raise ValueError(f"cannot encode a weight above 9 in {cs}")
    return " ".join("".join(map(str, c)) for c in cs)


def recorded_optimum() -> Callable[[str, core.GameDef], Any]:
    table = json.loads(STRUCTURES.read_text())

    def lookup(name: str, g: core.GameDef):
        cs = tuple(tuple(int(ch) for ch in text) for text in table[name].split())
        if core.structure_weight(cs, g.n) != g.weights:
            raise ValueError(f"structures.json does not fit instance {name}; record it again")
        return cs

    return lookup


SWEEP_GAMES = 64  # tiny games per pass
SWEEP_LBG = 24  # bottleneck instances per pass


def _tiny_game(rng: random.Random, k: int):
    """Game k of the sweep: shape, n, W and the chord cycle through a fixed
    schedule so every pass has the same size mix; the seed picks values."""
    shape = ("tree", "cycle", "clique")[k % 3]
    n = 3 + (k // 3) % 3
    w = 1 + (k // 9) % 3
    if shape == "tree":
        edges = fixed_tree_edges(n)
    elif shape == "cycle":
        edges = cycle_edges(n)
        if n >= 4 and (k // 27) % 2:
            edges.append((0, 2))
    else:
        n = min(n, 4)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return shape, sparse_game(rng, n, (w,) * n, edges, density=0.45)


def _enum_vector(g, k: int) -> tuple[int, ...]:
    """Resource vector small enough for the exhaustive leg: the full weights,
    lowered one unit at a time round-robin from agent k % n until the atom
    box and the structure count fit their caps.  Random vectors moved the
    enumeration's cost by 20% from seed to seed."""
    c = list(g.weights)
    i = k % g.n
    while True:
        box = 1
        for x in c:
            box *= x + 1
        if box <= ENUM_BOX and oracle.count_structures(g, tuple(c), cap=ENUM_CAP) <= ENUM_CAP:
            return tuple(c)
        while c[i] == 0:
            i = (i + 1) % g.n
        c[i] -= 1
        i = (i + 1) % g.n


def sweep(seed: int) -> Workload:
    """Desk-scale crosscheck traffic: every tiny game on the oracle and a DP lane."""
    rng = random.Random(seed)
    wl = Workload("sweep")
    for k in range(SWEEP_GAMES):
        shape, g = _tiny_game(rng, k)
        lane = "tree" if shape == "tree" else "tw"
        o = random_outcome(rng, g)
        c = _enum_vector(g, k)
        grp = f"w{k}.optval"
        wl.add(optval_query(f"w{k}.optval.{lane}", g, c, lane, grp))
        wl.add(cover_query(f"w{k}.optval.cover", g, c, grp))
        wl.add(enumerate_query(f"w{k}.optval.enumerate", g, c, grp))
        S = frozenset(rng.sample(range(g.n), 1 + (k // 5) % 3))
        rule = RULES5[k % 5]
        if rule is arbitration.SENSITIVE:
            wl.add(brute_arbval_query(f"w{k}.arbval.brute.sensitive", g, rule, o, S, None))
        else:
            grp = f"w{k}.arbval"
            wl.add(brute_arbval_query(f"w{k}.arbval.brute.{rule.name}", g, rule, o, S, grp))
            wl.add(arbval_query(f"w{k}.arbval.local.{rule.name}", g, rule, o, S, "local", grp))
            if lane == "tree":
                wl.add(arbval_query(f"w{k}.arbval.tree.{rule.name}", g, rule, o, S, "tree", grp))
        rule = RULES4[k % 4]
        grp = f"w{k}.excess"
        wl.add(brute_max_excess_query(f"w{k}.excess.brute.{rule.name}", g, rule, o, grp))
        wl.add(max_excess_query(f"w{k}.excess.{lane}.{rule.name}", g, rule, o, lane, grp))
    for k in range(SWEEP_LBG):
        wl.add(lbg_query(f"l{k}.lbg", random_lbg(rng, 2 + k % 5, 3 + k % 8)))
    return _with_warmup(wl)


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "forest": forest,
    "treewidth": treewidth_wl,
    "stability": stability,
    "sweep": sweep,
}


def _with_warmup(wl: Workload) -> Workload:
    seen: set[str] = set()
    for q in wl.queries:
        if q.kind not in seen:
            seen.add(q.kind)
            wl.warmup.append(q)
    return wl


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def fingerprint(wl: Workload) -> str:
    """Canonical text of the workload's inputs, for the determinism self-test."""

    def text(value) -> str:
        if isinstance(value, arbitration.ArbitrationRule):
            return value.name  # the default repr holds a memory address
        return repr(value)

    parts = []
    for q in wl.queries:
        cells = q.call.__closure__ or ()
        parts.append(q.label + "|" + "|".join(text(c.cell_contents) for c in cells))
    return "\n".join(parts)
