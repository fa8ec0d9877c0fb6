"""Exact rational linear programming on integer rows.

One dense tableau serves both LPs, and one ``pivot`` changes it.  Each row
is a list of ``int``s, a positive multiple of the rational row it stands
for, kept primitive (the gcd of its entries is 1): its basic column holds
that multiple, the row's scale, where the rational row holds 1.  A positive
scale changes no sign and cancels in every ratio ``rhs / a``, so each rule
below picks what it would pick on the rational tableau, and no ``Fraction``
arithmetic runs inside: ``add_row`` lifts its input to integers once, and a
vertex or a dual is divided back into ``Fraction`` once, where it is read
(integer rows over a common denominator, as in QSopt_ex by Applegate, Cook,
Dash and Espinoza 2007).

* ``DualSimplex`` - feasibility of ``{x >= 0 : rows}`` kept across added
  rows.  Each row gets its own slack, so there is no artificial column; the
  objective is zero, so every basis is dual feasible and each ``solve``
  restores primal feasibility by dual simplex pivots from the last basis
  (Lemke 1954).  Cutting-plane loops that add one violated row per round
  (Kelley 1960) re-solve from where the last round stopped.
* ``solve_lp`` - maximize c.x subject to rows (a, sense, b) with sense one
  of "<=", ">=", "=", and x >= 0.  Phase 1 is a ``DualSimplex`` solve of
  the rows; phase 2 runs primal simplex pivots on the objective from that
  basis.  Both phases follow Bland-type rules, so every solve terminates
  and the returned vertex is deterministic.  The final basis certifies row
  duals; for a maximization with <= rows they are the usual non-negative
  shadow prices.  Status is one of "optimal", "infeasible", "unbounded".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import ZERO, ContractViolation

Row = tuple[list[Fraction], str, Fraction]


@dataclass
class LinearProgram:
    n_vars: int
    objective: list[Fraction]
    rows: list[Row] = field(default_factory=list)

    def add_row(self, coeffs: dict[int, Fraction], sense: str, rhs: Fraction) -> None:
        dense = [ZERO] * self.n_vars
        for j, v in coeffs.items():
            dense[j] = Fraction(v)
        self.rows.append((dense, sense, Fraction(rhs)))


def _eliminate(row: list[int], base: list[int], b: int) -> list[int]:
    """base[b] * row - row[b] * base: zero in column b, and a positive
    multiple of what the rational row minus its multiple of base would be."""
    f, p = row[b], base[b]
    return [p * a - f * c for a, c in zip(row, base)]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [a // g for a in row]


def pivot(tab: list[list[int]], basis: list[int], leave: int, enter: int) -> list[int]:
    """Pivot on (leave, enter): column ``enter`` becomes basic in row
    ``leave`` and zero in every other row.  The leaving row is negated if
    its entry there is negative, so that entry becomes the row's positive
    scale p; every other row with an entry f there becomes p * other -
    f * row (``_eliminate``) divided by the gcd of its entries.  Every entry
    of a row takes part, the right-hand side included, wherever it sits.
    Returns the pivot row."""
    row = tab[leave]
    if row[enter] < 0:
        row = tab[leave] = [-a for a in row]
    for i, other in enumerate(tab):
        if other[enter] and i != leave:
            tab[i] = _primitive(_eliminate(other, row, enter))
    basis[leave] = enter
    return row


@dataclass
class LpSolution:
    status: str
    x: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    duals: tuple[Fraction, ...] | None = None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly; duals are reported against the rows as given.

    Phase 1 loads the rows into a :class:`DualSimplex` and makes them
    feasible by its dual pivots.  Phase 2 runs primal pivots on the
    objective from that basis under Bland's rule: the lowest column with a
    positive reduced cost enters, and among the min-ratio rows the one whose
    basic variable has the lowest column leaves.  The reduced costs are an
    ``int`` row over a positive scale, and ratios are compared by
    cross-multiplying.  Tableau row k's dual is minus the reduced cost of
    its slack; a ``>=`` row reports it negated and an ``=`` row its ``<=``
    half's minus its ``>=`` half's, so that A^T y >= c and y.b is the
    optimum."""
    n = lp.n_vars
    if len(lp.objective) != n:
        raise ContractViolation("objective length must equal n_vars")
    system = DualSimplex(n)
    for coeffs, sense, rhs in lp.rows:
        if len(coeffs) != n:
            raise ContractViolation("row width must equal n_vars")
        system.add_row({j: a for j, a in enumerate(coeffs) if a}, sense, rhs)
    if system.solve() is None:
        return LpSolution(status="infeasible")

    tab, basis = system.tab, system.basis
    width = len(tab[0]) if tab else 1 + n
    # reduced costs: red[j] / scale, with scale > 0
    scale = math.lcm(*(c.denominator for c in lp.objective))
    red = [0] * width
    for j, c in enumerate(lp.objective):
        red[1 + j] = c.numerator * (scale // c.denominator)

    def price_out(row: list[int], b: int) -> None:
        nonlocal red, scale
        if red[b]:
            red, scale = _eliminate(red, row, b), scale * row[b]
            g = math.gcd(scale, *red)
            red, scale = [a // g for a in red], scale // g

    for row, b in zip(tab, basis):
        price_out(row, b)
    while True:
        enter = next((j for j in range(1, width) if red[j] > 0), 0)
        if not enter:
            break
        leave = -1
        for i, row in enumerate(tab):
            a = row[enter]
            if a <= 0:
                continue
            if leave >= 0:
                # row[0] / a against the best ratio so far, cross-multiplied
                d = row[0] * tab[leave][enter] - tab[leave][0] * a
                if d > 0 or (d == 0 and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave < 0:
            return LpSolution(status="unbounded")
        price_out(pivot(tab, basis, leave, enter), enter)

    x = system.point()
    value = sum((c * v for c, v in zip(lp.objective, x)), start=ZERO)
    duals = []
    slack = 1 + n
    for _, sense, _ in lp.rows:
        y = 0
        if sense != ">=":
            y -= red[slack]
            slack += 1
        if sense != "<=":
            y += red[slack]
            slack += 1
        duals.append(Fraction(y, scale))
    return LpSolution(status="optimal", x=x, objective_value=value, duals=tuple(duals))


class DualSimplex:
    """Feasibility of ``{x >= 0 : rows}``, kept across rows added later;
    also the tableau on which ``solve_lp`` runs both of its phases.

    Tableau rows hold the right-hand side at column 0, then the ``n_vars``
    variables, then one slack per row; row k starts with its slack basic.
    A ``<=`` row a.x <= b is kept as a.x + s = b, a ``>=`` row as
    -a.x + s = -b, and an ``=`` row as both, each times the lcm of its
    entries' denominators.  ``add_row`` reduces a new row against the
    current basis and appends it with its slack basic, so the last basis
    stays; ``solve`` then pivots until every right-hand side is
    non-negative.  Bland-type rule: the leaving row is the infeasible row
    whose basic variable has the lowest column, the entering column the
    lowest one with a negative entry in that row.  Every column ties in the
    dual ratio test (the objective is zero), so this is Bland's rule for the
    dual and the pivots never cycle; the vertex found is deterministic.  An
    infeasible leaving row with no negative entry proves the system
    infeasible: it reads sum of non-negative terms = negative.  From then
    on ``infeasible`` is True and every ``solve`` returns None, since added
    rows only shrink the set.
    """

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.tab: list[list[int]] = []
        self.basis: list[int] = []
        self.infeasible = False

    def add_row(self, coeffs: dict[int, int | Fraction], sense: str, rhs: int | Fraction) -> None:
        if sense not in ("<=", ">=", "="):
            raise ContractViolation(f"unknown sense {sense!r}")
        if any(not 0 <= j < self.n_vars for j in coeffs):
            raise ContractViolation("row refers to a variable outside n_vars")
        if sense != ">=":
            self._append(coeffs, rhs, 1)
        if sense != "<=":
            self._append(coeffs, rhs, -1)

    def _append(self, coeffs: dict[int, int | Fraction], rhs: int | Fraction, sign: int) -> None:
        width = 1 + self.n_vars + len(self.tab)
        scale = math.lcm(rhs.denominator, *(a.denominator for a in coeffs.values()))
        row = [0] * (width + 1)
        row[0] = sign * rhs.numerator * (scale // rhs.denominator)
        for j, a in coeffs.items():
            row[1 + j] = sign * a.numerator * (scale // a.denominator)
        row[width] = scale
        for base in self.tab:
            base.append(0)
        # zero the new row in every basic column
        for base, b in zip(self.tab, self.basis):
            if row[b]:
                row = _eliminate(row, base, b)
        self.tab.append(_primitive(row))
        self.basis.append(width)

    def solve(self) -> tuple[Fraction, ...] | None:
        """A point satisfying every row added so far, or None if none does."""
        tab, basis = self.tab, self.basis
        while not self.infeasible:
            leave = -1
            for i, row in enumerate(tab):
                if row[0] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return self.point()
            row = tab[leave]
            enter = next((j for j in range(1, len(row)) if row[j] < 0), 0)
            if enter:
                pivot(tab, basis, leave, enter)
            else:
                self.infeasible = True
        return None

    def point(self) -> tuple[Fraction, ...]:
        """The current basis's vertex: each basic variable at its row's
        right-hand side over its scale, every other variable at 0."""
        x = [ZERO] * self.n_vars
        for row, b in zip(self.tab, self.basis):
            if b <= self.n_vars:
                x[b - 1] = Fraction(row[0], row[b])
        return tuple(x)
