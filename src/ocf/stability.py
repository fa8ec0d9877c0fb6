"""Is-Stable: the stability LP and the cutting-plane loop around it.

A payoff division that makes a fixed structure stable is a point of one LP
(Zick, Chalkiadakis, Elkind, Markakis): one non-negative variable per
(coalition, contributor), one efficiency equality per coalition, and one
``>=`` row per deviating set and deviation, saying that the set's payoff
covers its post-deviation structure's value plus what the coalitions it
shares with outsiders pay it.  Those payments come from each local rule's
``payment_terms``, so no row here switches on the rule.  ``brute_is_stable``
in :mod:`ocf.oracle` writes every row up front; ``cutting_plane``, behind
``is_stable_tree`` and ``is_stable_tw``, adds only the rows that the lane's
CheckCore finds violated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .arbitration import (
    CoreViolation,
    Deviation,
    LocalArbitrationRule,
    PaymentTerm,
    UnsupportedRuleError,
)
from .core import (
    ZERO,
    BudgetExceededError,
    CoalitionStructure,
    ContractViolation,
    GameDef,
    Imputation,
    Outcome,
    mixed_indices,
    structure_weight,
    support,
    vec_leq,
)
from .lp import LinearProgram, solve_lp

VarIndex = dict[tuple[int, int], int]


def stability_lp(
    g: GameDef, rule: LocalArbitrationRule, cs: CoalitionStructure
) -> tuple[LinearProgram, VarIndex]:
    """Stability LP skeleton shared by every Is-Stable solver.

    One non-negative variable per (coalition index, contributor) and one
    efficiency equality per coalition.  Supported rules: the local ones,
    whose payments are linear per branch; the others have no linear
    stability constraints.
    """
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(
            f"stability system is not linear for rule {rule.name!r}"
        )
    var_of: VarIndex = {}
    for j, c in enumerate(cs):
        for i in sorted(support(c)):
            var_of[(j, i)] = len(var_of)
    lp = LinearProgram(n_vars=len(var_of), objective=[ZERO] * len(var_of))
    for j, c in enumerate(cs):
        sup = sorted(support(c))
        if not sup:
            continue
        lp.add_row({var_of[(j, i)]: Fraction(1) for i in sup}, "=", g.charfun.value(c))
    return lp, var_of


def read_imputation(
    cs: CoalitionStructure, var_of: VarIndex, x: tuple[Fraction, ...], n: int
) -> Imputation:
    """The imputation held by an LP point of ``stability_lp``'s variables."""
    imputation = []
    for j, c in enumerate(cs):
        row = [ZERO] * n
        for i in support(c):
            row[i] = x[var_of[(j, i)]]
        imputation.append(tuple(row))
    return tuple(imputation)


def stability_row(
    var_of: VarIndex,
    deviators: frozenset[int],
    picks: Iterable[tuple[int, PaymentTerm]],
) -> tuple[dict[int, Fraction], Fraction]:
    """p_S(x) minus the picked payment terms, as LP coefficients, and the sum
    of those terms' constants.  ``picks`` pairs coalition indices with one
    payment term each."""
    row = {v: Fraction(1) for (j, i), v in var_of.items() if i in deviators}
    const = ZERO
    for j, (coeffs, c0) in picks:
        for i, a in coeffs.items():
            v = var_of[(j, i)]
            row[v] = row.get(v, ZERO) - a
        const += c0
    return row, const


def _stability_cut(
    g: GameDef,
    cs: CoalitionStructure,
    deviators: frozenset[int],
    dev: Deviation,
    post_value: Fraction,
    rule: LocalArbitrationRule,
    candidate: Imputation,
    var_of: VarIndex,
) -> tuple[dict[int, Fraction], Fraction]:
    """Linear cut p_S(x) - payments(x) >= const for the witnessed deviation.

    Each mixed coalition's payment enters through the term that is largest
    at the candidate point, the first on ties; for the clamped optimistic
    rule that freezes its branch (linear while it is >= 0, else zero).  The
    resulting cut is implied by the true constraint and still separates the
    candidate.
    """
    picks = []
    for j in mixed_indices(cs, deviators):
        terms = rule.payment_terms(g.charfun, cs[j], dev.withdrawal(j, g.n), deviators)
        at = [sum((a * candidate[j][i] for i, a in co.items()), start=c0) for co, c0 in terms]
        picks.append((j, terms[at.index(max(at))]))
    coeffs, const = stability_row(var_of, deviators, picks)
    return coeffs, post_value + const


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
    lp, var_of = stability_lp(g, rule, cs)
    if not vec_leq(structure_weight(cs, g.n), g.weights):
        raise ContractViolation("structure exceeds agent endowments")
    for _ in range(max_rounds):
        sol = solve_lp(lp)
        if sol.status != "optimal":
            return None
        assert sol.x is not None
        candidate = read_imputation(cs, var_of, sol.x, g.n)
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
