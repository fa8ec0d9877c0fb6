"""Brute-force reference solvers, exact at desk scale.

Everything here trades time for certainty: exhaustive enumeration of coalition
structures, deviations and agent subsets, guarded by an explicit budget so a
mistyped instance aborts with a count instead of running unbounded.  The
pseudo-polynomial solvers in :mod:`ocf.tree` and :mod:`ocf.treewidth` are
tested against these.  ``brute_is_stable`` writes the whole stability
system of :mod:`ocf.stability`: one row per deviating set, withdrawal
profile and choice of the rule's payment terms.
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
    deviation_available,
)
from .core import (
    ZERO,
    BudgetExceededError,
    Coalition,
    CoalitionStructure,
    ContractViolation,
    GameDef,
    Imputation,
    Outcome,
    mixed_indices,
    reduce_structure_indices,
    structure_weight,
    support,
    vec_leq,
    zero_coalition,
)
from .covers import CoverTable, lift
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


def _shared(cs: list[Coalition]) -> CoalitionStructure:
    """The same structure holding one tuple object per distinct coalition."""
    seen: dict[Coalition, Coalition] = {}
    return tuple(seen.setdefault(c, c) for c in cs)


def _pad_fillers(atoms: list[Coalition], target: Coalition, n: int) -> CoalitionStructure:
    """Append one singleton filler per agent so the weight is exactly target."""
    used = structure_weight(tuple(atoms), n)
    out = list(atoms)
    for i in range(n):
        gap = target[i] - used[i]
        if gap > 0:
            filler = [0] * n
            filler[i] = gap
            out.append(tuple(filler))
    return _shared(out)


def superadditive_cover(
    g: GameDef, c: Coalition, budget: EnumerationBudget | None = DEFAULT_BUDGET
) -> tuple[Fraction, CoalitionStructure]:
    """Best value achievable from resources ``c``, with an achieving structure.

    Memoized recurrence over the stored positive-valued coalitions; the
    witness weighs exactly ``c`` (zero-value fillers pad the leftovers).
    Pass ``budget=None`` to lift the default desk-scale guard.
    """
    g.check_coalition(c)
    _check_cover_budget(g, c, budget)
    sup = sorted(support(c))
    if not sup:
        return ZERO, ()
    local_caps = tuple(c[i] for i in sup)
    atoms = []
    for a, v in g.charfun.atoms_within(frozenset(sup)):
        atoms.append((tuple(a[i] for i in sup), v))
    table = CoverTable(atoms, local_caps)
    picked = lift(table.witness_atoms(local_caps), sup, g.n)
    return table.value(local_caps), _pad_fillers(picked, c, g.n)


def _nonzero_atoms_below(c: Coalition) -> list[Coalition]:
    """All nonzero integer vectors <= c, lexicographically ordered."""
    ranges = [range(w + 1) for w in c]
    return [v for v in product(*ranges) if any(v)]


def count_structures(
    g: GameDef, c: Coalition, cap: int | None = None
) -> int:
    """Number of coalition multisets with sum <= c, saturating at cap + 1."""
    g.check_coalition(c)
    atoms = _nonzero_atoms_below(c)
    limit = None if cap is None else cap + 1
    memo: dict[tuple[int, Coalition], int] = {}

    def count(idx: int, rem: Coalition) -> int:
        if idx == len(atoms):
            return 1
        key = (idx, rem)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = count(idx + 1, rem)
        a = atoms[idx]
        if (limit is None or total <= limit) and vec_leq(a, rem):
            total += count(idx, tuple(r - x for r, x in zip(rem, a)))
        if limit is not None and total > limit:
            total = limit
        memo[key] = total
        return total

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(atoms) + 1000))
    try:
        return count(0, c)
    finally:
        sys.setrecursionlimit(old)


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
    atoms = _nonzero_atoms_below(c)

    def rec(start: int, rem: Coalition, acc: list[Coalition]) -> Iterator[CoalitionStructure]:
        yield tuple(acc)
        for idx in range(start, len(atoms)):
            a = atoms[idx]
            if vec_leq(a, rem):
                acc.append(a)
                yield from rec(idx, tuple(r - x for r, x in zip(rem, a)), acc)
                acc.pop()

    return rec(0, c, [])


def _withdrawal_options(c: Coalition, deviators: frozenset[int]) -> list[Coalition]:
    """All withdrawal vectors from one coalition, zero vector first."""
    coords = sorted(support(c) & deviators)
    n = len(c)
    opts = []
    for combo in product(*[range(c[i] + 1) for i in coords]):
        w = [0] * n
        for i, amount in zip(coords, combo):
            w[i] = amount
        opts.append(tuple(w))
    return opts


def brute_arbval(
    g: GameDef,
    arb: ArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    budget: EnumerationBudget | None = DEFAULT_BUDGET,
) -> tuple[Fraction, tuple[Deviation, CoalitionStructure]]:
    """Exact best deviation value for S by exhausting all withdrawal patterns.

    Post-deviation structures are optimized by the superadditive cover of the
    freed resources rather than enumerated, which is exact and much smaller.
    """
    n = g.n
    mixed = mixed_indices(o.structure, deviators)
    options = {j: _withdrawal_options(o.structure[j], deviators) for j in mixed}
    space = 1
    for opts in options.values():
        space *= len(opts)
    if budget is not None and space > budget.max_structures:
        raise BudgetExceededError(
            f"deviation space {space} exceeds budget.max_structures={budget.max_structures}"
        )
    caps = tuple(g.weights[i] if i in deviators else 0 for i in range(n))
    sup = sorted(support(caps))
    atoms = [
        (tuple(a[i] for i in sup), v) for a, v in g.charfun.atoms_within(deviators)
    ]
    table = CoverTable(atoms, tuple(caps[i] for i in sup)) if sup else None

    best: Fraction | None = None
    best_dev: Deviation | None = None
    best_avail: Coalition | None = None
    for combo in product(*[options[j] for j in mixed]):
        dev = Deviation(withdrawals={j: w for j, w in zip(mixed, combo) if any(w)})
        avail = deviation_available(g, o, deviators, dev)
        if table is not None:
            new_value = table.value(tuple(avail[i] for i in sup))
        else:
            new_value = ZERO
        payments = arb.deviation_payoffs(g, o, deviators, dev)
        total = new_value + sum(payments.values(), start=ZERO)
        if best is None or total > best:
            best = total
            best_dev = dev
            best_avail = avail
    assert best is not None and best_dev is not None and best_avail is not None
    picked = []
    if table is not None:
        picked = lift(table.witness_atoms(tuple(best_avail[i] for i in sup)), sup, n)
    post = _pad_fillers(picked, best_avail, n)
    return best, (best_dev, post)


def iter_subsets(n: int) -> Iterator[frozenset[int]]:
    """Nonempty agent subsets in ascending bitmask order."""
    for mask in range(1, 1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def _max_excess_scan(
    g: GameDef, arb: ArbitrationRule, o: Outcome, budget: EnumerationBudget | None
) -> CoreViolation:
    """The nonempty subset of maximum excess, the first in bitmask order on
    ties, with the deviation and post-deviation structure that earn it."""
    if budget is not None and g.n > budget.max_agents:
        raise BudgetExceededError(
            f"n={g.n} exceeds budget.max_agents={budget.max_agents} (2^n subsets)"
        )
    best: CoreViolation | None = None
    for S in iter_subsets(g.n):
        value, (dev, post) = brute_arbval(g, arb, o, S, budget)
        excess = value - o.payoff_to_set(S)
        if best is None or excess > best.excess:
            best = CoreViolation(agents=S, excess=excess, deviation=dev, post=post)
    assert best is not None
    return best


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


def _stability_deviations(
    g: GameDef, cs: CoalitionStructure, deviators: frozenset[int], rule: ArbitrationRule
) -> Iterator[dict[int, Coalition]]:
    """Withdrawal profiles whose constraints jointly pin A* for the rule.

    Conservative payments never depend on the withdrawal, so only the full
    withdrawal (maximal freed resources) binds.  Refined payments only
    distinguish zero from nonzero withdrawal, so {keep all, withdraw all} per
    coalition suffices.  Optimistic needs every withdrawal level.
    """
    n = g.n
    mixed = mixed_indices(cs, deviators)
    per: list[list[Coalition]] = []
    for j in mixed:
        c = cs[j]
        full = tuple(c[i] if i in deviators else 0 for i in range(n))
        if rule.name == "conservative":
            per.append([full])
        elif rule.name == "refined":
            opts = [zero_coalition(n)]
            if any(full):
                opts.append(full)
            per.append(opts)
        else:
            per.append(_withdrawal_options(c, deviators))
    for combo in product(*per):
        yield {j: w for j, w in zip(mixed, combo) if any(w)}


def brute_is_stable(
    g: GameDef,
    rule: ArbitrationRule,
    cs: CoalitionStructure,
    budget: EnumerationBudget | None = DEFAULT_BUDGET,
) -> Imputation | None:
    """Solve the full stability system for the structure exactly.

    Adds one linear stability constraint per (subset, withdrawal profile)
    pair to the structure's ``StabilitySystem`` (efficiency presolved,
    individual rationality seeded, as in the cutting-plane loop), then
    solves it once.  Supported rules: conservative, refined,
    optimistic (either clamping).  Under the clamped optimistic rule each
    pair takes one row per zero/linear branch of every mixed coalition, so
    the stability rows are counted before they are built: the budget allows
    2^n subsets with 2^(max_agents - 2) rows each on average, 16 at the
    default.
    """
    system = StabilitySystem(g, rule, cs)
    if budget is not None and g.n > budget.max_agents:
        raise BudgetExceededError(
            f"n={g.n} exceeds budget.max_agents={budget.max_agents}"
        )
    n = g.n
    cover_cache: dict[Coalition, Fraction] = {}

    def cover_value(avail: Coalition) -> Fraction:
        if avail not in cover_cache:
            cover_cache[avail], _ = superadditive_cover(g, avail, budget)
        return cover_cache[avail]

    max_rows = None if budget is None else 1 << (n + budget.max_agents - 2)
    rows = 0
    committed = structure_weight(cs, n)
    zero = zero_coalition(n)
    for S in iter_subsets(n):
        own = structure_weight(tuple(cs[j] for j in reduce_structure_indices(cs, S)), n)
        mixed = mixed_indices(cs, S)
        for withdrawals in _stability_deviations(g, cs, S, rule):
            avail = tuple(
                own[i] + (g.weights[i] - committed[i]) + sum(w[i] for w in withdrawals.values())
                if i in S
                else 0
                for i in range(n)
            )
            const = cover_value(avail)
            # one row per choice of payment term from every mixed coalition
            terms = [
                rule.payment_terms(g.charfun, cs[j], withdrawals.get(j, zero), S)
                for j in mixed
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
