"""Pseudo-polynomial solvers for 2-OCF games on tree interaction graphs.

All four problems run in time polynomial in n and the largest weight once
coalitions are pairwise (k <= 2) and the interaction graph is a forest.
OptVal, ArbVal and CheckCore are the width-1 case of the treewidth lane: they
run the bag engines of :mod:`ocf.treewidth` on ``forest_decomposition``.

* ``optval_tree``    - best coalition structure for a resource vector.
* ``arbval_local``   - best deviation value of a small set S under any local
                       rule, on any interaction structure, by a DP over
                       withdrawal vectors (table size grows as W^|S|).
* ``arbval_tree``    - best deviation value of an arbitrary S whose induced
                       subgraph is acyclic: each deviator's solo table is
                       replaced by one that may also keep resources with
                       non-deviating neighbours for arbitration payoffs.
* ``checkcore_tree`` - maximum excess over all nonempty agent subsets via the
                       bag CheckCore engine on ``forest_decomposition``;
                       positive excess refutes core membership and comes with
                       the violating set.
* ``is_stable_tree`` - cutting-plane search for a stabilizing imputation,
                       using checkcore as the separation oracle; the loop,
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
from .covers import CoverTable, single_cover, single_cover_witness
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
    for j, (c, x) in enumerate(zip(o.structure, o.imputation)):
        sup = support(c)
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
        if sum(x, start=ZERO) != g.charfun.value(c):
            raise ContractViolation(f"coalition {j} violates efficiency")
        for i, v in enumerate(x):
            if v < 0 or (v > 0 and i not in sup):
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

    def value(self, w: int) -> Fraction:
        return self.values[w]

    def witness(self, w: int, n: int) -> list[Coalition]:
        out = []
        for units in single_cover_witness(self.atoms, self.choice, w):
            c = [0] * n
            c[self.agent] = units
            out.append(tuple(c))
        return out


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
    return [k for k, c in enumerate(o.structure) if support(c) == frozenset((i, j))]


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
        caps: list[int] = []
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
            caps.append(ci)
        self.cap = sum(caps)
        table: list[list[Fraction | None]] = [[ZERO] + [None] * self.cap]
        bp: list[list[int | None]] = []
        for row, ci in zip(pays, caps):
            prev = table[-1]
            cur: list[Fraction | None] = [None] * (self.cap + 1)
            cbp: list[int | None] = [None] * (self.cap + 1)
            for y in range(self.cap + 1):
                best = None
                pick = None
                for k in range(min(y, ci) + 1):
                    rest = prev[y - k]
                    if rest is None:
                        continue
                    cand = rest + row[k]
                    if best is None or cand > best:
                        best = cand
                        pick = k
                cur[y] = best
                cbp[y] = pick
            table.append(cur)
            bp.append(cbp)
        self.values = table[-1]
        self._table = table
        self._bp = bp

    def value(self, y: int) -> Fraction | None:
        """Best payoff for keeping exactly y units; None when unreachable."""
        if y > self.cap:
            return None
        return self.values[y]

    def keeps(self, y: int) -> dict[int, int]:
        """Per-coalition kept units achieving value(y)."""
        out: dict[int, int] = {}
        for step in range(len(self.indices) - 1, -1, -1):
            k = self._bp[step][y]
            assert k is not None
            out[self.indices[step]] = k
            y -= k
        assert y == 0
        return out


class AlphaTable:
    """Best total arbitration payoff for agent i keeping y units with the
    given non-deviating neighbours, merged edge by edge."""

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, i: int, others: list[int]):
        self.keep_tables = [KeepTable(g, o, rule, i, j) for j in others]
        self.cap = sum(t.cap for t in self.keep_tables)
        table: list[list[Fraction | None]] = [[ZERO] + [None] * self.cap]
        bp: list[list[int | None]] = []
        for kt in self.keep_tables:
            prev = table[-1]
            cur: list[Fraction | None] = [None] * (self.cap + 1)
            cbp: list[int | None] = [None] * (self.cap + 1)
            for y in range(self.cap + 1):
                best = None
                pick = None
                for k in range(min(y, kt.cap) + 1):
                    rest, kv = prev[y - k], kt.value(k)
                    if rest is None or kv is None:
                        continue
                    cand = rest + kv
                    if best is None or cand > best:
                        best = cand
                        pick = k
                cur[y] = best
                cbp[y] = pick
            table.append(cur)
            bp.append(cbp)
        self.values = table[-1]
        self._bp = bp

    def value(self, y: int) -> Fraction | None:
        if y > self.cap:
            return None
        return self.values[y]

    def keeps(self, y: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for step in range(len(self.keep_tables) - 1, -1, -1):
            k = self._bp[step][y]
            assert k is not None
            out.update(self.keep_tables[step].keeps(k))
            y -= k
        assert y == 0
        return out


class VBarTable:
    """Solo table of a deviator: split w units between working alone and
    staying in coalitions with non-deviating neighbours."""

    def __init__(self, single: SingleTable, alpha: AlphaTable, cap: int):
        self.single = single
        self.alpha = alpha
        self.values = []
        self.split: list[tuple[int, int]] = []
        for w in range(cap + 1):
            best = None
            pick = None
            for kept in range(min(w, alpha.cap) + 1):
                av = alpha.value(kept)
                if av is None:
                    continue
                cand = single.value(w - kept) + av
                if best is None or cand > best:
                    best = cand
                    pick = (w - kept, kept)
            self.values.append(best)
            self.split.append(pick)

    def value(self, w: int):
        return self.values[w]

    def witness(self, w: int, n: int) -> list[Coalition]:
        alone, _ = self.split[w]
        return self.single.witness(alone, n)

    def kept(self, w: int) -> dict[int, int]:
        _, kept = self.split[w]
        return self.alpha.keeps(kept)


def _deviation_from_keeps(o: Outcome, kept: dict[int, int], deviators: frozenset[int], n: int) -> Deviation:
    """Translate per-coalition kept units into withdrawal vectors.

    Mixed coalitions absent from ``kept`` are fully withdrawn from."""
    withdrawals: dict[int, Coalition] = {}
    for j, c in enumerate(o.structure):
        sup = support(c)
        if not (sup & deviators) or sup <= deviators:
            continue
        d = [0] * n
        for i in sup & deviators:
            d[i] = c[i]
        withdrawals[j] = tuple(d)
    for j, keep in kept.items():
        c = o.structure[j]
        (i,) = support(c) & deviators
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

    states = list(product(*[range(b + 1) for b in bound]))
    # A[t] = best arbitration payoff if exactly t is withdrawn; unused
    # resources withdraw for free, coalition steps add rule payments
    A: dict = {}
    for t in states:
        ok = all(x <= unused[i] for x, i in zip(t, coords))
        A[t] = ZERO if ok else None
    trace: list[dict] = []
    for j in mixed:
        c = o.structure[j]
        x = o.imputation[j]
        opts = []
        wcoords = [i for i in coords if c[i] > 0]
        for combo in product(*[range(c[i] + 1) for i in wcoords]):
            w = [0] * n
            for i, amount in zip(wcoords, combo):
                w[i] = amount
            wl = tuple(w[i] for i in coords)
            pay = rule.coalition_payoff(g.charfun, c, tuple(w), x, deviators)
            opts.append((wl, tuple(w), pay))
        nxt: dict = {}
        bp: dict = {}
        for t in states:
            best = None
            pick = None
            for wl, wfull, pay in opts:
                if any(a > b for a, b in zip(wl, t)):
                    continue
                rest = A[tuple(b - a for a, b in zip(wl, t))]
                if rest is None:
                    continue
                cand = rest + pay
                if best is None or cand > best:
                    best = cand
                    pick = (wl, wfull)
            nxt[t] = best
            bp[t] = pick
        A = nxt
        trace.append(bp)

    sup = coords
    atoms = [(tuple(a[i] for i in sup), v) for a, v in g.charfun.atoms_within(deviators)]
    cover = CoverTable(atoms, tuple(g.weights[i] for i in sup)) if sup else None
    own_local = tuple(own[i] for i in coords)
    best = None
    best_t = None
    for t in states:
        if A[t] is None:
            continue
        have = tuple(a + b for a, b in zip(own_local, t))
        cand = (cover.value(have) if cover else ZERO) + A[t]
        if best is None or cand > best:
            best = cand
            best_t = t
    assert best is not None and best_t is not None
    if not with_witness:
        return best
    withdrawals: dict[int, Coalition] = {}
    t = best_t
    for step in range(len(mixed) - 1, -1, -1):
        pick = trace[step][t]
        assert pick is not None
        wl, wfull = pick
        if any(wfull):
            withdrawals[mixed[step]] = wfull
        t = tuple(b - a for a, b in zip(wl, t))
    have = tuple(a + b for a, b in zip(own_local, best_t))
    picked = []
    if cover:
        for a in cover.witness_atoms(have):
            full = [0] * n
            for i, w in zip(sup, a):
                full[i] = w
            picked.append(tuple(full))
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
    """None iff the outcome is stable; otherwise the worst violating set."""
    excess, members = max_excess_tree(g, rule, o)
    if excess <= 0:
        return None
    return CoreViolation(agents=members, excess=excess)


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
    separate: Callable[[Outcome], tuple[frozenset[int], Deviation, CoalitionStructure] | None],
    max_rounds: int,
) -> Imputation | None:
    """Find an imputation making the structure stable, or prove none exists.

    Solves an exact LP of efficiency equalities plus the cuts found so far and
    asks ``separate`` about the candidate: None means it is in the core,
    otherwise ``(agents, deviation, post)`` witnesses one new linear cut that
    the candidate violates.  There are finitely many (set, deviation, branch)
    cuts, so the loop ends; exhausting ``max_rounds`` raises
    ``BudgetExceededError``.

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
        found = separate(Outcome(structure=cs, imputation=candidate))
        if found is None:
            return candidate
        agents, dev, post = found
        post_value = sum((g.charfun.value(c) for c in post), start=ZERO)
        coeffs, const = _stability_cut(g, cs, agents, dev, post_value, rule, candidate, var_of)
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

    def separate(outcome: Outcome):
        violation = checkcore_tree(g, rule, outcome)
        if violation is None:
            return None
        _, dev, post = arbval_tree(g, rule, outcome, violation.agents, with_witness=True)
        return violation.agents, dev, post

    return cutting_plane(g, rule, cs, separate, max_rounds)


# The bag engine builds on the tables above, so it is imported last.
from .treewidth import (  # noqa: E402
    _arbval_bags,
    forest_decomposition,
    max_excess_tw,
    optval_tw,
)
