"""Brute-force reference solvers, exact at desk scale.

Everything here trades time for certainty: exhaustive enumeration of coalition
structures, deviations and agent subsets, guarded by an explicit budget so a
mistyped instance aborts with a count instead of running unbounded.  The
pseudo-polynomial solvers in :mod:`ocf.tree` and :mod:`ocf.treewidth` are
tested against these.  ``brute_is_stable`` writes the whole stability
system of :mod:`ocf.stability` for any local rule: one row per deviating
set, profile of the rule's withdrawal menus and choice of its payment terms.

What a deviating set S may use after a withdrawal profile is the identity
of :mod:`ocf.arbitration`: for i in S, its weight minus what it leaves in
the coalitions it shares with outsiders.  ``deviation_available`` gives it
once per set with no withdrawal, and each profile adds its withdrawals.

Exhaustive does not mean rebuilt: each call builds one cover table.
``brute_max_excess``/``brute_checkcore`` and ``brute_is_stable`` look up
what every deviating set may use in one table over the game's weights
(clipped to ``budget.max_weight`` for Is-Stable, whose lookups pass the
cover budget first); a vector zero outside S is reached only by atoms
inside S, met in the same order as in S's own table, so values and
witnesses are those of a table per set.  The max-excess scan reads what
each set is paid from one table of subset sums and builds the witness
structure of the winning set alone.  ``count_structures`` is a counting
table over the box below ``c``, and ``enumerate_structures`` hands each
level the atoms still fitting, filtered from its own list, so the canonical
yield order is unchanged.  It packs each vector into one ``int``, a field
per agent with a guard bit above it, so ``b <= rest`` is
``((rest | G) - b) & G == G`` for the guard mask G and ``rest - b`` is one
subtraction (the SWAR test of Lamport, CACM 18(8), 1975).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .arbitration import (
    ArbitrationRule,
    CoreViolation,
    Deviation,
    LocalArbitrationRule,
    deviation_available,
    withdrawal_options,
)
from .core import (
    BudgetExceededError,
    Coalition,
    CoalitionStructure,
    ContractViolation,
    GameDef,
    Imputation,
    Outcome,
    _pad_fillers,
    _require_agents,
    _subset_sums,
    mixed_indices,
    require_outcome,
    structure_weight,
    support,
)
from .covers import CoverTable
from .stability import StabilitySystem, stability_row


@dataclass(frozen=True)
class EnumerationBudget:
    max_agents: int = 6
    max_weight: int = 4
    max_structures: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_agents < 1 or self.max_weight < 1 or self.max_structures < 1:
            raise ContractViolation("budget bounds must be positive")


DEFAULT_BUDGET = EnumerationBudget()


def _check_cover_budget(g: GameDef, c: Coalition, budget: EnumerationBudget | None) -> None:
    if budget is None:
        return
    sup = support(c)
    if len(sup) > budget.max_agents:
        raise BudgetExceededError(
            f"support size {len(sup)} exceeds budget.max_agents={budget.max_agents}"
        )
    if any(w > budget.max_weight for w in c):
        raise BudgetExceededError(
            f"coalition weight {max(c)} exceeds budget.max_weight={budget.max_weight}"
        )


def superadditive_cover(
    g: GameDef, c: Coalition, budget: EnumerationBudget | None = DEFAULT_BUDGET
) -> tuple[Fraction, CoalitionStructure]:
    """Best value achievable from resources ``c``, with an achieving structure.

    One cover table over the stored positive-valued coalitions inside the
    support of ``c``; the witness weighs exactly ``c`` (zero-value fillers
    pad the leftovers).
    Pass ``budget=None`` to lift the default desk-scale guard.
    """
    g.check_coalition(c)
    _check_cover_budget(g, c, budget)
    table = CoverTable(g.charfun.atoms_within(support(c)), c)
    return table.value(c), _pad_fillers(g, table.witness_atoms(c), c)


def _nonzero_atoms_below(c: Coalition) -> list[Coalition]:
    """All nonzero integer vectors <= c, lexicographically ordered."""
    ranges = [range(w + 1) for w in c]
    return [v for v in product(*ranges) if any(v)]


def count_structures(
    g: GameDef, c: Coalition, cap: int | None = None
) -> int:
    """Number of coalition multisets with sum <= c, saturating at cap + 1.

    The (+) analogue of ``covers.closure`` over the box below ``c``: with
    ``ways`` one everywhere (the empty multiset), adding each atom ``a`` in
    turn by ``ways[r] += ways[r - a]`` in lexicographic order leaves
    ``ways[r]`` the number of multisets of the atoms so far with sum <= r.
    """
    g.check_coalition(c)
    limit = None if cap is None else cap + 1
    ways = dict.fromkeys(product(*[range(w + 1) for w in c]), 1)
    for a in _nonzero_atoms_below(c):
        hi = product(*[range(x, w + 1) for x, w in zip(a, c)])
        lo = product(*[range(w - x + 1) for x, w in zip(a, c)])
        for r, rest in zip(hi, lo):
            total = ways[r] + ways[rest]
            ways[r] = total if limit is None or total < limit else limit
    return ways[tuple(c)]


def enumerate_structures(
    g: GameDef, c: Coalition, budget: EnumerationBudget | None = DEFAULT_BUDGET
) -> Iterator[CoalitionStructure]:
    """Yield every multiset of nonzero coalitions with sum <= c.

    Structures come out as tuples sorted by the lexicographic atom order
    (the canonical multiset form), each exactly once, the empty structure
    first.  The precise multiset count is checked against the budget before
    anything is yielded.
    """
    g.check_coalition(c)
    if budget is not None:
        total = count_structures(g, c, cap=budget.max_structures)
        if total > budget.max_structures:
            raise BudgetExceededError(
                f"structure count exceeds budget.max_structures="
                f"{budget.max_structures} (count is at least {total})"
            )

    # each vector packed into one int: a field per agent, wide enough for
    # c's largest entry, under a guard bit that a subtraction borrows from
    # exactly when that field goes negative
    bits = max(c, default=0).bit_length()
    width = bits + 1
    guards = sum(1 << (i * width + bits) for i in range(g.n))

    def pack(v: Coalition) -> int:
        return sum(x << (i * width) for i, x in enumerate(v))

    # a stored or one-agent vector is yielded as the game's own tuple, so
    # structures kept side by side add no copies
    own = {v: v for v in (*g.charfun.vectors.values(), *g._solo_vectors.values())}
    vector = {pack(a): own.get(a, a) for a in _nonzero_atoms_below(c)}

    def rec(fits: list[int], rem: int, acc: list[Coalition]) -> Iterator[CoalitionStructure]:
        # fits: the packed atoms from the last one taken on that fit into rem
        yield tuple(acc)
        for k, a in enumerate(fits):
            rest = rem - a
            room = rest | guards
            acc.append(vector[a])
            yield from rec([b for b in fits[k:] if (room - b) & guards == guards], rest, acc)
            acc.pop()

    return rec(list(vector), pack(c), [])


def brute_arbval(
    g: GameDef,
    arb: ArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    budget: EnumerationBudget | None = DEFAULT_BUDGET,
) -> tuple[Fraction, tuple[Deviation, CoalitionStructure]]:
    """Exact best deviation value for S by exhausting all withdrawal patterns.

    Post-deviation structures are optimized by the superadditive cover of
    what S may use rather than enumerated, which is exact and much smaller.
    The outcome passes ``core.require_outcome``, as on every lane.
    """
    _require_agents(g.n, deviators)
    require_outcome(g, o)
    caps = tuple(w if i in deviators else 0 for i, w in enumerate(g.weights))
    table = CoverTable(g.charfun.atoms_within(deviators), caps)
    value, dev, avail = _arbval_on(g, arb, o, deviators, budget, table)
    return value, (dev, _pad_fillers(g, table.witness_atoms(avail), avail))


def _arbval_on(
    g: GameDef,
    arb: ArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    budget: EnumerationBudget | None,
    table: CoverTable,
) -> tuple[Fraction, Deviation, Coalition]:
    """``brute_arbval``'s value and deviation, with what S may use after it,
    reading the cover of what S may use, which is zero outside
    ``deviators``, from ``table``; the caller builds the post-deviation
    witness from the last.  What S may use before any withdrawal is derived
    once; each profile adds its withdrawals to it, and only nonzero payments
    are added to its cover value."""
    mixed = mixed_indices(o.structure, deviators)
    base = deviation_available(g, o.structure, deviators, Deviation())
    options = {j: withdrawal_options(g, o.structure[j], deviators) for j in mixed}
    space = 1
    for opts in options.values():
        space *= len(opts)
    if budget is not None and space > budget.max_structures:
        raise BudgetExceededError(
            f"deviation space {space} exceeds budget.max_structures={budget.max_structures}"
        )

    best: Fraction | None = None
    for combo in product(*[options[j] for j in mixed]):
        dev = Deviation(withdrawals={j: w for j, w in zip(mixed, combo) if any(w)})
        avail = structure_weight((base, *combo), g.n)
        payments = arb.deviation_payoffs(g, o, deviators, dev).values()
        total = sum((p for p in payments if p), start=table.value(avail))
        if best is None or total > best:
            best, best_dev, best_avail = total, dev, avail
    assert best is not None
    return best, best_dev, best_avail


def iter_subsets(n: int) -> Iterator[frozenset[int]]:
    """Nonempty agent subsets in ascending bitmask order."""
    for mask in range(1, 1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def _max_excess_scan(
    g: GameDef, arb: ArbitrationRule, o: Outcome, budget: EnumerationBudget | None
) -> CoreViolation:
    """The nonempty subset of maximum excess, the first in bitmask order on
    ties, with the deviation and post-deviation structure that earn it.  The
    outcome passes ``core.require_outcome`` once per call, not per subset;
    the subsets are the game's own (``GameDef._agent_sets``), what each is
    paid is read from one table of subset sums, and only the winning
    subset's witness structure is built."""
    require_outcome(g, o)
    if budget is not None and g.n > budget.max_agents:
        raise BudgetExceededError(
            f"n={g.n} exceeds budget.max_agents={budget.max_agents} (2^n subsets)"
        )
    # a state zero outside S is reached only by atoms inside S, met in the
    # same relative order, so one table over all agents answers every S
    # exactly as S's own table would, picks included
    table = CoverTable(g.charfun.atoms(), g.weights)
    paid = _subset_sums([o.payoff_to_agent(i) for i in range(g.n)])
    best: tuple[Fraction, frozenset[int], Deviation, Coalition] | None = None
    for mask in range(1, 1 << g.n):
        S = g._agent_sets[mask]
        value, dev, avail = _arbval_on(g, arb, o, S, budget, table)
        excess = value - paid[mask]
        if best is None or excess > best[0]:
            best = (excess, S, dev, avail)
    assert best is not None
    excess, S, dev, avail = best
    post = _pad_fillers(g, table.witness_atoms(avail), avail)
    return CoreViolation(agents=S, excess=excess, deviation=dev, post=post)


def brute_checkcore(
    g: GameDef,
    arb: ArbitrationRule,
    o: Outcome,
    budget: EnumerationBudget | None = DEFAULT_BUDGET,
) -> CoreViolation | None:
    """Scan all nonempty subsets for positive excess; None means in the core.

    Returns the subset with the maximum excess (first such subset in bitmask
    order on ties) together with its witness deviation.
    """
    best = _max_excess_scan(g, arb, o, budget)
    return best if best.excess > 0 else None


def brute_max_excess(
    g: GameDef,
    arb: ArbitrationRule,
    o: Outcome,
    budget: EnumerationBudget | None = DEFAULT_BUDGET,
) -> tuple[Fraction, frozenset[int]]:
    """Maximum excess over all nonempty subsets, stable or not."""
    best = _max_excess_scan(g, arb, o, budget)
    return best.excess, best.agents


def brute_is_stable(
    g: GameDef,
    rule: LocalArbitrationRule,
    cs: CoalitionStructure,
    budget: EnumerationBudget | None = DEFAULT_BUDGET,
) -> Imputation | None:
    """Solve the full stability system for the structure exactly.

    Adds one linear stability constraint per (subset, withdrawal profile)
    pair to the structure's ``StabilitySystem`` (efficiency presolved,
    individual rationality seeded, as in the cutting-plane loop), then
    solves it once.  Supported rules: any local rule.  The withdrawal
    profiles are the product of the rule's ``withdrawal_menu`` over the
    coalitions S shares with outsiders.  A rule with several payment terms,
    such as the clamped optimistic one, takes one row per choice of term from
    every mixed coalition, so the stability rows are counted before they are
    built: the budget allows 2^n subsets with 2^(max_agents - 2) rows each on
    average, 16 at the default.
    """
    system = StabilitySystem(g, rule, cs)
    if budget is not None and g.n > budget.max_agents:
        raise BudgetExceededError(
            f"n={g.n} exceeds budget.max_agents={budget.max_agents}"
        )
    n = g.n
    # every lookup passes superadditive_cover's checks first, so none
    # leaves the clipped box
    caps = g.weights if budget is None else tuple(min(w, budget.max_weight) for w in g.weights)
    table = CoverTable(g.charfun.atoms(), caps)
    cover_cache: dict[Coalition, Fraction] = {}

    def cover_value(avail: Coalition) -> Fraction:
        if avail not in cover_cache:
            g.check_coalition(avail)
            _check_cover_budget(g, avail, budget)
            cover_cache[avail] = table.value(avail)
        return cover_cache[avail]

    max_rows = None if budget is None else 1 << (n + budget.max_agents - 2)
    rows = 0
    for S in iter_subsets(n):
        base = deviation_available(g, cs, S, Deviation())
        mixed = mixed_indices(cs, S)
        menus = [rule.withdrawal_menu(g, cs[j], S) for j in mixed]
        for withdrawals in product(*menus):
            const = cover_value(structure_weight((base, *withdrawals), n))
            # one row per choice of payment term from every mixed coalition
            terms = [
                rule.payment_terms(g.charfun, cs[j], d, S)
                for j, d in zip(mixed, withdrawals)
            ]
            rows += math.prod(len(t) for t in terms)
            if max_rows is not None and rows > max_rows:
                raise BudgetExceededError(
                    f"stability system exceeds {max_rows} rows "
                    f"(2^(n + budget.max_agents - 2), budget.max_agents={budget.max_agents})"
                )
            for combo in product(*terms):
                row, cst = stability_row(system.var_of, S, zip(mixed, combo))
                system.add_cut(row, const + cst)

    return system.solve()
