"""Is-Stable: the stability LP and the cutting-plane loop around it.

A payoff division that makes a fixed structure stable is a point of one LP
(Zick, Chalkiadakis, Elkind, Markakis): one non-negative variable per
(coalition, contributor), one efficiency equality per coalition, and one
``>=`` row per deviating set and deviation, saying that the set's payoff
covers its post-deviation structure's value plus what the coalitions it
shares with outsiders pay it.  Those payments come from each local rule's
``payment_terms``, so no row here switches on the rule.

Every solver holds it as a ``StabilitySystem`` instead:

* presolved - a singleton coalition's variable is fixed at its value, and a
  larger coalition's last contributor's variable is substituted out, which
  leaves one ``<=`` row on the others; no efficiency equality stays;
* seeded with one individual-rationality row per agent (its payoffs add up
  to at least its full-endowment solo value, read off the game's solo
  cover), so every imputation found is individually rational under every
  rule;
* grown one ``>=`` row at a time on :class:`ocf.lp.DualSimplex`, which
  re-solves from the last basis.

``brute_is_stable`` in :mod:`ocf.oracle` adds every row up front to the
full system.  ``cutting_plane``, behind ``is_stable_tree`` and
``is_stable_tw``, solves a smaller one and adds only the rows that the
lane's max-excess scan finds violated:

* copies of a coalition share one payoff row, which keeps every answer
  because swapping two copies' rows maps the convex set of stable
  imputations onto itself, so their average over the swaps is stable too;
* the scan's worst set, when its excess is positive, is split into its
  connected components in the interaction graph, and each component whose
  share of the excess is positive gives one cut; on a pairwise-shaped
  structure no coalition meets two components, so each component's cut is
  a row of the full system, and together they imply the set's own cut.

Rows are written over the full variables, one per (coalition index,
contributor) as in the LP above, and mapped into the presolved ones as they
are added.

Arithmetic: every row reaches the tableau as Python ``int``s, which is
exact.  The affine forms have ``int`` coefficients (1 or -1) and hold their
constants, coalition values, times the game's ``charfun.scale``; the rows
``stability_row`` and ``ir_rows`` write have ``int`` coefficients too, since
every rule's payment terms do.  Their constants (a solo value v*_i, a
post-deviation structure's value, a payment term's constant) stay
``Fraction``s, all multiples of ``1 / charfun.scale`` under the built-in
rules; ``StabilitySystem`` lifts each row to the lcm of that scale and its
constant's denominator, so a custom rule's constant off that scale stays
exact.  :mod:`ocf.lp` runs on those rows and divides its vertex back into
``Fraction``, and ``solve`` reads each full variable back from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

from .arbitration import (
    CoreViolation,
    Deviation,
    LocalArbitrationRule,
    PaymentTerm,
    require_local,
    split_violation,
)
from .core import (
    ZERO,
    BudgetExceededError,
    Coalition,
    CoalitionStructure,
    GameDef,
    Imputation,
    Outcome,
    mixed_indices,
    require_structure,
    structure_value,
    support,
)
from .covers import _scaled
from .lp import DualSimplex

VarIndex = dict[tuple[int, int], int]


def _variables(cs: CoalitionStructure) -> VarIndex:
    var_of: VarIndex = {}
    for j, c in enumerate(cs):
        for i in sorted(support(c)):
            var_of[(j, i)] = len(var_of)
    return var_of


def read_imputation(
    cs: CoalitionStructure, var_of: VarIndex, x: tuple[Fraction, ...], n: int
) -> Imputation:
    """The imputation held by an LP point of the full variables,
    holding one tuple object per distinct payoff row (repeated coalitions
    are often paid alike), so answers kept by a caller hold no copies."""
    shared: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}
    imputation = []
    for j, c in enumerate(cs):
        row = [ZERO] * n
        for i in support(c):
            row[i] = x[var_of[(j, i)]]
        t = tuple(row)
        imputation.append(shared.setdefault(t, t))
    return tuple(imputation)


def stability_row(
    var_of: VarIndex,
    deviators: frozenset[int],
    picks: Iterable[tuple[int, PaymentTerm]],
) -> tuple[dict[int, int], Fraction]:
    """p_S(x) minus the picked payment terms, as ``int`` LP coefficients,
    and the sum of those terms' constants.  ``picks`` pairs coalition
    indices with one payment term each."""
    row = {v: 1 for (j, i), v in var_of.items() if i in deviators}
    const = ZERO
    for j, (coeffs, c0) in picks:
        for i, a in coeffs.items():
            v = var_of[(j, i)]
            row[v] = row.get(v, 0) - a
        const += c0
    return row, const


def ir_rows(
    g: GameDef, cs: CoalitionStructure, var_of: VarIndex
) -> list[tuple[dict[int, int], Fraction]]:
    """Individual rationality as ``>=`` rows (coefficients, constant): each
    agent's payoffs add up to at least v*_i, the best it makes alone with its
    whole weight.  Agents whose v*_i is 0 get no row; x >= 0 implies it.

    A lone deviator that withdraws everything earns v*_i plus payments that
    are non-negative under the conservative, refined and clamped optimistic
    rules, so under those the core implies the rows and they change no
    answer.  Under the unclamped optimistic rule a payment can be negative;
    there the rows keep Is-Stable's imputations individually rational."""
    rows = []
    for i, w in enumerate(g.weights):
        solo = g.solo_value(i, w)
        if solo > 0:
            coeffs = {v: 1 for (j, k), v in var_of.items() if k == i}
            rows.append((coeffs, solo))
    return rows


class StabilitySystem:
    """The stability LP of one structure, presolved and seeded with
    individual rationality, to which ``>=`` rows are added one at a time.

    Each full variable (``_variables``) is an affine form (constant,
    {reduced variable: coefficient}) in the reduced variables of a
    :class:`ocf.lp.DualSimplex`: a singleton coalition's variable is the
    constant v(c); in a larger coalition every contributor but the last
    keeps a reduced variable and the last one's is v(c) minus theirs, which
    must stay non-negative - one ``<=`` row.  Coefficients are ``int``s and
    constants are held times ``scale``, the game's ``charfun.scale``.  With
    ``shared``, which only ``cutting_plane`` sets, every repeat of a
    coalition vector takes the first copy's forms, so copies are paid alike
    and add no variable and no row.  A coalition with v(c) < 0 makes the
    system infeasible.  ``cuts`` counts the rows added by ``add_cut``.  A
    structure that breaks ``core.structure_violations``, one over the
    endowments say, is refused with ``ContractViolation``, on every lane.
    """

    def __init__(
        self,
        g: GameDef,
        rule: LocalArbitrationRule,
        cs: CoalitionStructure,
        *,
        shared: bool = False,
    ):
        require_local(rule)
        require_structure(g, cs)
        self.cs = cs
        self.n = g.n
        self.var_of = _variables(cs)
        self.scale = g.charfun.scale
        self.cuts = 0
        self._infeasible = False
        self._forms: list[tuple[int, dict[int, int]]] = []
        first: dict[Coalition, int] = {}
        bounds = []
        reduced = 0
        # one form per full variable, in var_of's order
        for c in cs:
            sup = support(c)
            if not sup:
                continue
            if shared and c in first:
                self._forms.extend(self._forms[first[c] : first[c] + len(sup)])
                continue
            first[c] = len(self._forms)
            value = g.charfun.value(c)
            self._infeasible = self._infeasible or value < 0
            c0 = _scaled(value, self.scale)
            ks = range(reduced, reduced + len(sup) - 1)
            reduced += len(ks)
            self._forms.extend((0, {k: 1}) for k in ks)
            self._forms.append((c0, {k: -1 for k in ks}))
            if ks:
                bounds.append(({k: self.scale for k in ks}, c0))
        self._lp = DualSimplex(reduced)
        for coeffs, c0 in bounds:
            self._lp.add_row(coeffs, "<=", c0)
        for coeffs, const in ir_rows(g, cs, self.var_of):
            self._add(coeffs, const)

    def _add(self, coeffs: dict[int, int], const: Fraction) -> None:
        # the row times lcm(scale, const's denominator), in ints
        scale = math.lcm(self.scale, const.denominator)
        row: dict[int, int] = {}
        fixed = 0
        for v, a in coeffs.items():
            c0, form = self._forms[v]
            fixed += a * c0
            for k, b in form.items():
                row[k] = row.get(k, 0) + a * b
        rhs = _scaled(const, scale) - fixed * (scale // self.scale)
        self._lp.add_row({k: a * scale for k, a in row.items()}, ">=", rhs)

    def add_cut(self, coeffs: dict[int, int], const: Fraction) -> None:
        """Add the row sum of coeffs[v] * x_v >= const over the full variables."""
        self.cuts += 1
        self._add(coeffs, const)

    def solve(self) -> Imputation | None:
        """An imputation satisfying every row so far, or None if none does."""
        y = None if self._infeasible else self._lp.solve()
        if y is None:
            return None
        # one object per distinct value, as read_imputation shares rows
        values: dict[Fraction, Fraction] = {ZERO: ZERO}
        x = []
        for c0, form in self._forms:
            v = sum((b * y[k] for k, b in form.items()), start=Fraction(c0, self.scale))
            x.append(values.setdefault(v, v))
        return read_imputation(self.cs, self.var_of, tuple(x), self.n)


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
    max_excess: Callable[[Outcome], CoreViolation],
    max_rounds: int,
) -> Imputation | None:
    """Find an imputation making the pairwise-shaped structure stable, or
    prove none exists.

    Solves the shared ``StabilitySystem`` of the cuts found so far and asks
    the lane's ``max_excess`` scan for the candidate's worst deviating set:
    an excess of at most 0 means the candidate is in the core.  Otherwise
    ``split_violation`` splits the set into its connected components, and
    each component of positive excess witnesses one linear cut that the
    candidate violates (a cut is violated exactly when its component's
    excess is positive, as every payment enters through its largest term at
    the candidate); the system re-solves from its last basis.

    Both reductions are exact.  Copies of a coalition share one payoff row:
    the stable imputations form a convex set (each payment is a maximum of
    affine forms), and swapping two copies' rows maps it onto itself, so
    the average over those swaps is stable and pays copies alike.  A
    component's cut is a row of the full system: on a pairwise-shaped
    structure no coalition meets two components, so the excesses of the
    components add up to the set's, and the set's own cut is the sum of
    theirs.  There are finitely many (set, deviation, branch) cuts, so the
    loop ends; exhausting ``max_rounds`` raises ``BudgetExceededError``.
    A separated set none of whose components has positive excess, or whose
    cuts the candidate meets, every one, would be found again each round;
    either raises ``RuntimeError``.  The second means the rule's
    ``coalition_payoff``, which the lane's scan reads, and its
    ``payment_terms``, which the cut reads, disagree.
    """
    system = StabilitySystem(g, rule, cs, shared=True)
    for _ in range(max_rounds):
        candidate = system.solve()
        if candidate is None:
            return None
        o = Outcome(structure=cs, imputation=candidate)
        found = max_excess(o)
        if found.excess <= 0:
            return candidate
        violated = [part for part in split_violation(g, rule, o, found) if part.excess > 0]
        if not violated:
            raise RuntimeError(
                f"no component of the separated set {sorted(found.agents)} has positive excess,"
                f" though the set's is {found.excess}"
            )
        cuts = [
            _stability_cut(
                g, cs, part.agents, part.deviation, structure_value(g, part.post), rule, candidate,
                system.var_of,
            )
            for part in violated
        ]
        # each cut's own form at the candidate: one that meets every cut
        # would be found again next round
        x = {v: candidate[j][i] for (j, i), v in system.var_of.items()}
        if all(sum((a * x[v] for v, a in coeffs.items()), start=ZERO) >= const for coeffs, const in cuts):
            raise RuntimeError(
                f"no cut from the separated set {sorted(found.agents)} cuts off the candidate,"
                f" though the set's excess is {found.excess}: the rule's coalition_payoff"
                " and payment_terms disagree"
            )
        for cut in cuts:
            system.add_cut(*cut)
    raise BudgetExceededError(
        f"cutting-plane loop did not finish within max_rounds={max_rounds}"
    )
