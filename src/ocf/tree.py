"""Pseudo-polynomial solvers for 2-OCF games on tree interaction graphs.

All four problems run in time polynomial in n and the largest weight once
coalitions are pairwise (k <= 2) and the interaction graph is a forest.
The tree lane is the width-1 case of the treewidth lane: each entry checks
that the graph is a forest and calls its counterpart in :mod:`ocf.treewidth`
(``optval_tw``, ``arbval_tw``, ``checkcore_tw``, ``max_excess_tw``,
``is_stable_tw``), whose decomposition policy gives a forest its
``forest_decomposition``.  ``arbval_tree`` needs no forest: it answers any S,
and a set inducing a cycle gets a min-fill decomposition of its subgraph.
``arbval_local`` is the one solver of its own here: the best deviation value
of a small set S under any local rule, on any interaction structure, by a DP
over withdrawal vectors (table size grows as W^|S|).

The tree solvers require the outcome itself to be pairwise-shaped: every
coalition in the structure is supported by a single agent or by the two ends
of an interaction edge.  The brute-force oracle has no such restriction.
Every input check, the decomposition policy and the tables that feed the bag
engine live in :mod:`ocf.treewidth`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arbitration import (
    CoreViolation,
    Deviation,
    LocalArbitrationRule,
    deviation_available,
    require_local,
    withdrawal_options,
)
from .core import (
    BudgetExceededError,
    Coalition,
    CoalitionStructure,
    GameDef,
    Imputation,
    Outcome,
    _require_agents,
    mixed_indices,
    require_outcome,
)
from .covers import Box, CoverTable, _denominator, _scaled, chain, unchain
from .treewidth import (
    arbval_tw,
    checkcore_tw,
    forest_decomposition,
    is_stable_tw,
    max_excess_tw,
    optval_tw,
    require_forest,
)

# The benchmark's tracer (bench/tracing.py) wraps the feeder tables under
# their names on ocf.tree; that is the only reason they are imported here.
from .treewidth import AlphaTable, KeepTable, SingleTable, VBarTable  # noqa: F401

# ---------------------------------------------------------------------------
# cover tables


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
    of weight exactly ``c`` (zero-value fillers pad idle resources).  The
    decomposition is passed, not left to ``optval_tw``, because the
    benchmark's tracer (bench/tracing.py) reads the bags of that argument."""
    return optval_tw(g, forest_decomposition(require_forest(g)), c)


# ---------------------------------------------------------------------------
# ArbVal


def arbval_local(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    max_set_size: int = 4,
    with_witness: bool = False,
):
    """Best deviation value of a small set under any local rule.

    Works on any interaction structure and any k.  S may use what
    ``deviation_available`` gives it before any withdrawal (its own
    coalitions and unused weight) plus the total t it withdraws from the
    coalitions it shares with outsiders, each of which pays S for its own
    withdrawal.  A ``covers.chain`` over those coalitions, one layer each,
    keyed by each withdrawal's shift over S, finds the best payment for
    every t in the box below S's share of them; the answer is the best
    cover of base + t plus that payment.  The DP and that last scan run on
    ``int``s, at the lcm of the cover's scale and the payments'
    denominators.  The box has up to (W+1)^|S| states, so the set size is
    capped.  The outcome passes ``core.require_outcome``, as on every lane.
    """
    require_local(rule)
    _require_agents(g.n, deviators)
    require_outcome(g, o)
    if len(deviators) > max_set_size:
        raise BudgetExceededError(
            f"|S|={len(deviators)} exceeds the local-DP cap {max_set_size}"
        )
    coords = sorted(deviators)
    base = deviation_available(g, o.structure, deviators, Deviation())
    shared = tuple(g.weights[i] - base[i] for i in coords)
    mixed = mixed_indices(o.structure, deviators)
    cover = CoverTable(
        g.charfun.atoms_within(deviators),
        tuple(w if i in deviators else 0 for i, w in enumerate(g.weights)),
    )

    options, layers = [], []
    for j in mixed:
        c = o.structure[j]
        x = o.imputation[j]
        by_z = {tuple(w[i] for i in coords): w for w in withdrawal_options(g, c, deviators)}
        pays = {z: rule.coalition_payoff(g.charfun, c, w, x, deviators) for z, w in by_z.items()}
        options.append(by_z)
        layers.append(pays)
    # one int scale for the cover and the payments, read once the rule has paid
    d = math.lcm(cover.scale, _denominator(*(pays.values() for pays in layers)))
    layers = [{z: _scaled(v, d) for z, v in pays.items()} for pays in layers]
    # A[t] = best payment to S, times d, when it withdraws t in all
    box = Box(shared)
    A = dict.fromkeys(box.keys)
    A[(0,) * len(coords)] = 0
    A, trail = chain(box, A, layers)

    m = d // cover.scale
    value_at = cover.value_at
    best = None
    for t, paid in A.items():
        have = list(base)
        for i, u in zip(coords, t):
            have[i] += u
        cand = value_at[tuple(have)] * m + paid
        if best is None or cand > best:
            best, best_t, best_have = cand, t, have
    assert best is not None
    best = Fraction(best, d)
    if not with_witness:
        return best
    picks, _ = unchain(trail, best_t)
    withdrawals = {j: by_z[z] for j, by_z, z in zip(mixed, options, picks) if any(z)}
    return best, Deviation(withdrawals=withdrawals), tuple(cover.witness_atoms(best_have))


def arbval_tree(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    with_witness: bool = False,
):
    """``arbval_tw`` with the decomposition it builds: best deviation value
    of any S, on any interaction graph."""
    return arbval_tw(g, rule, o, deviators, with_witness=with_witness)


# ---------------------------------------------------------------------------
# CheckCore


def max_excess_tree(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome
) -> tuple[Fraction, frozenset[int]]:
    """Maximum excess over all nonempty subsets (and an achieving set)."""
    require_forest(g)
    return max_excess_tw(g, rule, o)


def checkcore_tree(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome
) -> CoreViolation | None:
    """None iff the outcome is stable; otherwise the worst violating set, with
    the deviation and post-deviation structure that earn its excess."""
    require_forest(g)
    return checkcore_tw(g, rule, o)


# ---------------------------------------------------------------------------
# Is-Stable


def is_stable_tree(
    g: GameDef,
    rule: LocalArbitrationRule,
    cs: CoalitionStructure,
    max_rounds: int = 100_000,
) -> Imputation | None:
    """Find an imputation making the structure stable, or prove none exists,
    by ``is_stable_tw`` on the forest decomposition."""
    require_forest(g)
    return is_stable_tw(g, rule, cs, max_rounds=max_rounds)
