"""Pseudo-polynomial solvers for 2-OCF games on tree interaction graphs.

All four problems run in time polynomial in n and the largest weight once
coalitions are pairwise (k <= 2) and the interaction graph is a forest.
OptVal, ArbVal and CheckCore are the width-1 case of the treewidth lane: they
run the bag engine of :mod:`ocf.treewidth` on ``forest_decomposition``.

* ``optval_tree``    - best coalition structure for a resource vector.
* ``arbval_local``   - best deviation value of a small set S under any local
                       rule, on any interaction structure, by a DP over
                       withdrawal vectors (table size grows as W^|S|).
* ``arbval_tree``    - best deviation value of an arbitrary S whose induced
                       subgraph is acyclic: each deviator's solo table is
                       replaced by one that may also keep resources with
                       non-deviating neighbours for arbitration payoffs.
* ``checkcore_tree`` - ``checkcore_tw`` on ``forest_decomposition``: maximum
                       excess over all nonempty agent subsets; positive
                       excess refutes core membership and comes with the
                       violating set, its deviation and its post-deviation
                       structure.
* ``is_stable_tree`` - cutting-plane search for a stabilizing imputation,
                       using checkcore as the separation oracle; each
                       violation's own witness gives the next cut.  The loop,
                       ``cutting_plane``, is shared with the treewidth lane.

The tree solvers require the outcome itself to be pairwise-shaped: every
coalition in the structure is supported by a single agent or by the two ends
of an interaction edge.  The brute-force oracle has no such restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .arbitration import (
    Deviation,
    LocalArbitrationRule,
    OptimisticRule,
    UnsupportedRuleError,
)
from .core import (
    ZERO,
    Coalition,
    CoalitionStructure,
    ContractViolation,
    GameDef,
    Imputation,
    InteractionGraph,
    Outcome,
    reduce_structure_indices,
    structure_weight,
    support,
    vec_leq,
)
from .covers import CoverTable, convolve, lift, single_cover, single_cover_witness
from .lp import solve_lp
from .oracle import BudgetExceededError, CoreViolation, _read_imputation, _stability_lp

class UnsupportedGameError(ValueError):
    """The game shape is outside this solver's contract."""


class UnsupportedOutcomeError(ValueError):
    """The outcome is not pairwise-shaped over the interaction graph."""


def require_two_ocf_tree(g: GameDef, need_forest: bool = True) -> InteractionGraph:
    if g.charfun.k > 2:
        raise UnsupportedGameError(f"solver requires a 2-OCF game, got k={g.charfun.k}")
    if g.interaction is None:
        raise UnsupportedGameError("solver requires an interaction graph")
    if need_forest and not g.interaction.is_forest():
        raise UnsupportedGameError(
            "interaction graph has a cycle; use the treewidth solver instead"
        )
    return g.interaction


def check_outcome_shape(g: GameDef, o: Outcome) -> None:
    """Light validity: feasible, efficient, no side payments, pairwise-shaped."""
    if g.interaction is None:
        raise UnsupportedGameError("solver requires an interaction graph")
    if len(o.structure) != len(o.imputation):
        raise ContractViolation("imputation length mismatch")
    if not vec_leq(structure_weight(o.structure, g.n), g.weights):
        raise ContractViolation("structure exceeds endowments")
    for j, (c, x, sup) in enumerate(zip(o.structure, o.imputation, o.supports)):
        if len(sup) > 2:
            raise UnsupportedOutcomeError(
                f"coalition {j} has {len(sup)} contributors; tree solvers need <= 2"
            )
        if len(sup) == 2:
            a, b = sorted(sup)
            if not g.interaction.has_edge(a, b):
                raise UnsupportedOutcomeError(
                    f"coalition {j} spans non-edge ({a},{b})"
                )
        # with nothing paid outside the support, its entries are the whole sum
        outside = any(v for i, v in enumerate(x) if i not in sup)
        paid = sum(x if outside else (x[i] for i in sup), start=ZERO)
        if paid != g.charfun.value(c):
            raise ContractViolation(f"coalition {j} violates efficiency")
        if outside or any(x[i] < 0 for i in sup):
            raise ContractViolation(f"coalition {j} pays outside its support")


@dataclass(frozen=True)
class RootedTree:
    root: int
    vertices: tuple[int, ...]
    children: dict[int, tuple[int, ...]]
    parent: dict[int, int | None]


def rooted_forest(graph: InteractionGraph, vertices: set[int] | None = None) -> list[RootedTree]:
    """Deterministic rooting: lowest index per component, children ascending,
    vertices in breadth-first order (every parent before its children)."""
    verts = set(range(graph.n)) if vertices is None else set(vertices)
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for a, b in graph.simple_edges():
        if a in verts and b in verts:
            adj[a].add(b)
            adj[b].add(a)
    seen: set[int] = set()
    trees = []
    for start in sorted(verts):
        if start in seen:
            continue
        children: dict[int, tuple[int, ...]] = {}
        parent: dict[int, int | None] = {start: None}
        order = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            kids = tuple(u for u in sorted(adj[v]) if u not in seen)
            children[v] = kids
            for u in kids:
                seen.add(u)
                parent[u] = v
                order.append(u)
                queue.append(u)
        trees.append(
            RootedTree(root=start, vertices=tuple(order), children=children, parent=parent)
        )
    return trees


# ---------------------------------------------------------------------------
# cover tables


def _single_atoms(g: GameDef, i: int) -> list[tuple[int, Fraction]]:
    out = []
    table = g.charfun.entries.get((i,), {})
    for contrib, value in sorted(table.items()):
        if value > 0:
            out.append((contrib[0], value))
    return out


class SingleTable:
    """v*_i(w): best split of w units of one agent into its own coalitions."""

    def __init__(self, g: GameDef, i: int, cap: int):
        self.agent = i
        self.atoms = _single_atoms(g, i)
        self.values, self.choice = single_cover(self.atoms, cap)
        self._vectors = g.charfun.vectors

    def value(self, w: int) -> Fraction:
        return self.values[w]

    def witness(self, w: int) -> list[Coalition]:
        key = (self.agent,)
        return [self._vectors[(key, (u,))] for u in single_cover_witness(self.atoms, self.choice, w)]


# No solver builds PairTable; it stays because bench/tracing.py lists it.
class PairTable:
    """v*_{i,j}(x, y): best structure over supports inside {i, j}."""

    def __init__(self, g: GameDef, i: int, j: int, cap_i: int, cap_j: int):
        atoms = []
        for c, v in g.charfun.atoms_within(frozenset((i, j))):
            atoms.append(((c[i], c[j]), v))
        self.table = CoverTable(atoms, (cap_i, cap_j))

    def value(self, x: int, y: int) -> Fraction:
        return self.table.value((x, y))


# ---------------------------------------------------------------------------
# OptVal


def optval_tree(g: GameDef, c: Coalition) -> tuple[Fraction, CoalitionStructure]:
    """Best structure value for resources ``c`` on a forest, with a witness
    of weight exactly ``c`` (zero-value fillers pad idle resources)."""
    graph = require_two_ocf_tree(g)
    return optval_tw(g, forest_decomposition(graph), c)


# ---------------------------------------------------------------------------
# ArbVal


def _pair_coalitions(o: Outcome, i: int, j: int) -> list[int]:
    """Indices of outcome coalitions supported by exactly {i, j}."""
    pair = frozenset((i, j))
    return [k for k, sup in enumerate(o.supports) if sup == pair]


def _line(values: list) -> dict:
    """A 1-d value list as a kernel table keyed by 1-tuples."""
    return {(k,): v for k, v in enumerate(values)}


def _chain(rows: list[list]) -> tuple[int, list, list[dict]]:
    """Best total over one entry per row, for every total index up to the sum
    of the rows' lengths: (that sum, the totals, the per-row picks)."""
    cap = sum(len(row) - 1 for row in rows)
    table = _line([ZERO] + [None] * cap)
    bps = []
    for row in rows:
        table, bp = convolve((cap,), table, (0,), _line(row))
        bps.append(bp)
    return cap, list(table.values()), bps


def _chain_picks(bps: list[dict], y: int) -> list[int]:
    """Per-row indices of one best choice for total y, in row order."""
    out = []
    for bp in reversed(bps):
        (k,) = bp[(y,)]
        out.append(k)
        y -= k
    assert y == 0
    return out[::-1]


class KeepTable:
    """Best arbitration payoff for keeping y units of one deviator on one edge.

    Covers the outcome coalitions supported by {dev, other}; keeping k of the
    deviator's contribution in a coalition means withdrawing the rest.
    A knapsack across the edge's coalitions, with per-coalition backpointers.
    """

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, dev: int, other: int):
        self.dev = dev
        self.indices = _pair_coalitions(o, dev, other)
        n = g.n
        pays: list[list[Fraction]] = []
        for j in self.indices:
            c = o.structure[j]
            x = o.imputation[j]
            ci = c[dev]
            row = []
            for keep in range(ci + 1):
                d = [0] * n
                d[dev] = ci - keep
                row.append(rule.coalition_payoff(g.charfun, c, tuple(d), x, frozenset((dev,))))
            pays.append(row)
        self.cap, self.values, self._bp = _chain(pays)

    def value(self, y: int) -> Fraction | None:
        """Best payoff for keeping exactly y units; None when unreachable."""
        if y > self.cap:
            return None
        return self.values[y]

    def keeps(self, y: int) -> dict[int, int]:
        """Per-coalition kept units achieving value(y)."""
        return dict(zip(self.indices, _chain_picks(self._bp, y)))


class AlphaTable:
    """Best total arbitration payoff for agent i keeping y units with the
    given non-deviating neighbours, merged edge by edge."""

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, i: int, others: list[int]):
        self.keep_tables = [KeepTable(g, o, rule, i, j) for j in others]
        self.cap, self.values, self._bp = _chain([t.values for t in self.keep_tables])

    def value(self, y: int) -> Fraction | None:
        if y > self.cap:
            return None
        return self.values[y]

    def keeps(self, y: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for table, k in zip(self.keep_tables, _chain_picks(self._bp, y)):
            out.update(table.keeps(k))
        return out


class VBarTable:
    """Solo table of a deviator: split w units between working alone and
    staying in coalitions with non-deviating neighbours."""

    def __init__(self, single: SingleTable, alpha: AlphaTable, cap: int):
        self.single = single
        self.alpha = alpha
        table, picks = convolve((cap,), _line(single.values), (0,), _line(alpha.values))
        self.values = list(table.values())
        self.split = [(w - kept, kept) for (w,), (kept,) in picks.items()]

    def value(self, w: int):
        return self.values[w]

    def witness(self, w: int) -> list[Coalition]:
        alone, _ = self.split[w]
        return self.single.witness(alone)

    def kept(self, w: int) -> dict[int, int]:
        _, kept = self.split[w]
        return self.alpha.keeps(kept)


def _deviation_from_keeps(o: Outcome, kept: dict[int, int], deviators: frozenset[int], n: int) -> Deviation:
    """Translate per-coalition kept units into withdrawal vectors.

    Mixed coalitions absent from ``kept`` are fully withdrawn from."""
    withdrawals: dict[int, Coalition] = {}
    for j, (c, sup) in enumerate(zip(o.structure, o.supports)):
        if not (sup & deviators) or sup <= deviators:
            continue
        d = [0] * n
        for i in sup & deviators:
            d[i] = c[i]
        withdrawals[j] = tuple(d)
    for j, keep in kept.items():
        c = o.structure[j]
        (i,) = o.supports[j] & deviators
        d = list(withdrawals[j])
        d[i] = c[i] - keep
        withdrawals[j] = tuple(d)
    return Deviation(withdrawals={j: d for j, d in withdrawals.items() if any(d)})


def arbval_local(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    max_set_size: int = 4,
    with_witness: bool = False,
):
    """Best deviation value of a small set under any local rule.

    Works on any interaction structure and any k.  The DP state is the vector
    of resources withdrawn so far, so the table has (W+1)^|S| entries; the set
    size is capped to keep that in check.
    """
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"rule {rule.name} is not local")
    if len(deviators) > max_set_size:
        raise BudgetExceededError(
            f"|S|={len(deviators)} exceeds the local-DP cap {max_set_size}"
        )
    n = g.n
    coords = sorted(deviators)
    own_idx = reduce_structure_indices(o.structure, deviators)
    own = structure_weight(tuple(o.structure[j] for j in own_idx), n)
    committed = structure_weight(o.structure, n)
    unused = [g.weights[i] - committed[i] for i in range(n)]
    bound = tuple(g.weights[i] - own[i] for i in coords)
    mixed = [
        j
        for j, c in enumerate(o.structure)
        if (support(c) & deviators) and not support(c) <= deviators
    ]

    # A[t] = best arbitration payoff if exactly t is withdrawn; unused
    # resources withdraw for free, each mixed coalition adds its rule payment
    A = {
        t: ZERO if all(x <= unused[i] for x, i in zip(t, coords)) else None
        for t in product(*[range(b + 1) for b in bound])
    }
    trace = []
    for j in mixed:
        c = o.structure[j]
        x = o.imputation[j]
        wcoords = [i for i in coords if c[i] > 0]
        combos = list(product(*[range(c[i] + 1) for i in wcoords]))
        pays = {
            z: rule.coalition_payoff(g.charfun, c, w, x, deviators)
            for z, w in zip(combos, lift(combos, wcoords, n))
        }
        axes = [coords.index(i) for i in wcoords]
        A, bp = convolve(bound, A, axes, pays)
        trace.append((wcoords, axes, bp))

    atoms = [(tuple(a[i] for i in coords), v) for a, v in g.charfun.atoms_within(deviators)]
    cover = CoverTable(atoms, tuple(g.weights[i] for i in coords)) if coords else None
    own_local = tuple(own[i] for i in coords)
    best = None
    best_t = None
    for t, paid in A.items():
        if paid is None:
            continue
        have = tuple(a + b for a, b in zip(own_local, t))
        cand = (cover.value(have) if cover else ZERO) + paid
        if best is None or cand > best:
            best = cand
            best_t = t
    assert best is not None and best_t is not None
    if not with_witness:
        return best
    withdrawals: dict[int, Coalition] = {}
    t = best_t
    for j, (wcoords, axes, bp) in zip(reversed(mixed), reversed(trace)):
        z = bp[t]
        assert z is not None
        (w,) = lift([z], wcoords, n)
        if any(w):
            withdrawals[j] = w
        rest = list(t)
        for p, zz in zip(axes, z):
            rest[p] -= zz
        t = tuple(rest)
    have = tuple(a + b for a, b in zip(own_local, best_t))
    picked = lift(cover.witness_atoms(have), coords, n) if cover else []
    return best, Deviation(withdrawals=withdrawals), tuple(picked)


def arbval_tree(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    with_witness: bool = False,
):
    """Best deviation value of any S inducing an acyclic interaction subgraph.

    Falls back to ``arbval_local`` when S induces a cycle but is small enough;
    no cap on |S| otherwise.
    """
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"rule {rule.name} is not local")
    graph = require_two_ocf_tree(g, need_forest=False)
    check_outcome_shape(g, o)
    sub_edges = [
        (a, b) for a, b in graph.simple_edges() if a in deviators and b in deviators
    ]
    sub = InteractionGraph.from_pairs(g.n, sub_edges)
    if not sub.is_forest():
        if len(deviators) <= 4:
            return arbval_local(g, rule, o, deviators, with_witness=with_witness)
        raise UnsupportedGameError(
            "deviating set induces a cycle; use arbval_local or the treewidth solver"
        )
    return _arbval_bags(g, rule, o, deviators, forest_decomposition(sub, deviators), with_witness)


# ---------------------------------------------------------------------------
# CheckCore


def max_excess_tree(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome
) -> tuple[Fraction, frozenset[int]]:
    """Maximum excess over all nonempty subsets (and an achieving set)."""
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"rule {rule.name} is not local")
    graph = require_two_ocf_tree(g)
    return max_excess_tw(g, rule, o, forest_decomposition(graph))


def checkcore_tree(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome
) -> CoreViolation | None:
    """None iff the outcome is stable; otherwise the worst violating set, with
    the deviation and post-deviation structure that earn its excess."""
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"rule {rule.name} is not local")
    graph = require_two_ocf_tree(g)
    return checkcore_tw(g, rule, o, forest_decomposition(graph))


# ---------------------------------------------------------------------------
# Is-Stable


def _stability_cut(
    g: GameDef,
    cs: CoalitionStructure,
    deviators: frozenset[int],
    dev: Deviation,
    post_value: Fraction,
    rule: LocalArbitrationRule,
    candidate: Imputation,
    var_of: dict[tuple[int, int], int],
) -> tuple[dict[int, Fraction], Fraction]:
    """Linear cut p_S(x) - payments(x) >= const for the witnessed deviation.

    For the clamped optimistic rule the per-coalition branch (linear vs zero)
    is frozen at the candidate point; the resulting cut is implied by the true
    constraint and still separates the candidate.
    """
    n = g.n
    coeffs: dict[int, Fraction] = {}
    for (j, i), v in var_of.items():
        if i in deviators:
            coeffs[v] = coeffs.get(v, ZERO) + 1
    const = post_value
    clamped = isinstance(rule, OptimisticRule) and rule.clamped
    for j, c in enumerate(cs):
        sup = support(c)
        if not (sup & deviators) or sup <= deviators:
            continue
        d = dev.withdrawal(j, n)
        if rule.name == "conservative":
            continue
        if rule.name == "refined":
            if not any(d):
                for i in sup & deviators:
                    v = var_of[(j, i)]
                    coeffs[v] = coeffs.get(v, ZERO) - 1
            continue
        remainder = tuple(a - b for a, b in zip(c, d))
        base = g.charfun.value(remainder)
        if clamped:
            achieved = base - sum(
                (candidate[j][i] for i in sup - deviators), start=ZERO
            )
            if achieved < 0:
                continue  # zero branch active at the candidate
        const += base
        for i in sup - deviators:
            v = var_of[(j, i)]
            coeffs[v] = coeffs.get(v, ZERO) + 1
    return coeffs, const


def cutting_plane(
    g: GameDef,
    rule: LocalArbitrationRule,
    cs: CoalitionStructure,
    checkcore: Callable[[Outcome], CoreViolation | None],
    max_rounds: int,
) -> Imputation | None:
    """Find an imputation making the structure stable, or prove none exists.

    Solves an exact LP of efficiency equalities plus the cuts found so far and
    asks the lane's ``checkcore`` about the candidate: None means it is in the
    core, otherwise the violation's agents, deviation and post-deviation
    structure witness one new linear cut that the candidate violates.  There
    are finitely many (set, deviation, branch) cuts, so the loop ends;
    exhausting ``max_rounds`` raises ``BudgetExceededError``.

    Under the unclamped optimistic rule a deviator pays any shortfall between
    what a coalition's remainder earns and what its non-deviators were
    promised, so the returned imputation is in the core yet may fail
    full-endowment individual rationality.
    """
    lp, var_of = _stability_lp(g, rule, cs)
    if not vec_leq(structure_weight(cs, g.n), g.weights):
        raise ContractViolation("structure exceeds agent endowments")
    for _ in range(max_rounds):
        sol = solve_lp(lp)
        if sol.status != "optimal":
            return None
        assert sol.x is not None
        candidate = _read_imputation(cs, var_of, sol.x, g.n)
        found = checkcore(Outcome(structure=cs, imputation=candidate))
        if found is None:
            return candidate
        assert found.deviation is not None and found.post is not None
        post_value = sum((g.charfun.value(c) for c in found.post), start=ZERO)
        coeffs, const = _stability_cut(
            g, cs, found.agents, found.deviation, post_value, rule, candidate, var_of
        )
        lp.add_row(coeffs, ">=", const)
    raise BudgetExceededError(
        f"cutting-plane loop did not finish within max_rounds={max_rounds}"
    )


def is_stable_tree(
    g: GameDef,
    rule: LocalArbitrationRule,
    cs: CoalitionStructure,
    max_rounds: int = 100_000,
) -> Imputation | None:
    """Find an imputation making the structure stable, or prove none exists,
    by ``cutting_plane`` with the forest CheckCore as separation oracle."""
    require_two_ocf_tree(g)
    return cutting_plane(g, rule, cs, lambda o: checkcore_tree(g, rule, o), max_rounds)


# The bag engine builds on the tables above, so it is imported last.
from .treewidth import (  # noqa: E402
    _arbval_bags,
    checkcore_tw,
    forest_decomposition,
    max_excess_tw,
    optval_tw,
)
