"""Exact rational linear programming.

Two solvers over :class:`fractions.Fraction` share one Gauss-Jordan
``pivot`` on a dense tableau:

* ``solve_lp`` - a two-phase tableau simplex with Bland's anti-cycling
  rule, so every solve terminates and the returned vertex is deterministic.
  The final basis certifies row duals; for a maximization with <= rows the
  duals are the usual non-negative shadow prices.  Problem shape: maximize
  c.x subject to rows (a, sense, b) with sense one of "<=", ">=", "=", and
  x >= 0.  Status is one of "optimal", "infeasible", "unbounded".
* ``DualSimplex`` - feasibility of ``{x >= 0 : rows}`` kept across added
  rows.  Each row gets its own slack, so there is no artificial column and
  no phase 1; the objective is zero, so every basis is dual feasible and
  each ``solve`` restores primal feasibility by dual simplex pivots from the
  last basis (Lemke 1954).  Cutting-plane loops that add one violated row
  per round (Kelley 1960) re-solve from where the last round stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import ZERO, ContractViolation

ONE = Fraction(1)

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


def pivot(tab: list[list[Fraction]], basis: list[int], leave: int, enter: int) -> list[Fraction]:
    """Gauss-Jordan pivot on (leave, enter): column ``enter`` becomes a unit
    column with its 1 in row ``leave``, whose basic variable it becomes.
    Every entry of a row takes part, the right-hand side included, wherever
    it sits.  Returns the scaled pivot row."""
    row = tab[leave]
    piv = row[enter]
    if piv != 1:
        inv = ONE / piv
        for j, a in enumerate(row):
            if a:
                row[j] = a * inv
    nonzero = [(j, a) for j, a in enumerate(row) if a]
    for i, other in enumerate(tab):
        if i != leave:
            f = other[enter]
            if f:
                for j, a in nonzero:
                    other[j] -= f * a
    basis[leave] = enter
    return row


@dataclass
class LpSolution:
    status: str
    x: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    duals: tuple[Fraction, ...] | None = None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly; duals are reported against the rows as given."""
    n = lp.n_vars
    if len(lp.objective) != n:
        raise ContractViolation("objective length must equal n_vars")
    for coeffs, sense, _ in lp.rows:
        if len(coeffs) != n:
            raise ContractViolation("row width must equal n_vars")
        if sense not in ("<=", ">=", "="):
            raise ContractViolation(f"unknown sense {sense!r}")

    # standardize: all rhs >= 0 (negating rows flips duals)
    std_rows: list[tuple[list[Fraction], str, Fraction, int]] = []
    for coeffs, sense, rhs in lp.rows:
        rhs2 = Fraction(rhs)
        coeffs2 = [Fraction(a) for a in coeffs]
        mult = 1
        if rhs2 < 0:
            coeffs2 = [-a for a in coeffs2]
            rhs2 = -rhs2
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
            mult = -1
        std_rows.append((coeffs2, sense, rhs2, mult))

    m = len(std_rows)
    slack_of: dict[int, int] = {}
    art_of: dict[int, int] = {}
    ncols = n
    for i, (_, sense, _, _) in enumerate(std_rows):
        if sense == "<=":
            slack_of[i] = ncols
            ncols += 1
        elif sense == ">=":
            slack_of[i] = ncols  # surplus, coefficient -1
            ncols += 1
            art_of[i] = ncols
            ncols += 1
        else:
            art_of[i] = ncols
            ncols += 1

    tab = [[ZERO] * (ncols + 1) for _ in range(m)]
    basis = [0] * m
    for i, (coeffs, sense, rhs, _) in enumerate(std_rows):
        for j, a in enumerate(coeffs):
            tab[i][j] = a
        tab[i][ncols] = rhs
        if sense == "<=":
            tab[i][slack_of[i]] = ONE
            basis[i] = slack_of[i]
        elif sense == ">=":
            tab[i][slack_of[i]] = -ONE
            tab[i][art_of[i]] = ONE
            basis[i] = art_of[i]
        else:
            tab[i][art_of[i]] = ONE
            basis[i] = art_of[i]

    artificials = set(art_of.values())

    def run(cost: list[Fraction], banned: set[int]) -> str:
        # maintain the reduced-cost row; Bland: lowest-index entering column,
        # lowest-index basic variable among min-ratio rows
        red = list(cost) + [ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                for j in range(ncols + 1):
                    if tab[i][j] != 0:
                        red[j] -= cb * tab[i][j]
        while True:
            enter = -1
            for j in range(ncols):
                if j not in banned and red[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best_ratio: Fraction | None = None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][ncols] / a
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < basis[leave]
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            row = pivot(tab, basis, leave, enter)
            f = red[enter]
            if f != 0:
                for j in range(ncols + 1):
                    if row[j] != 0:
                        red[j] -= f * row[j]

    if artificials:
        phase1 = [ZERO] * ncols
        for j in artificials:
            phase1[j] = -ONE
        # artificials may leave the basis but never re-enter
        run(phase1, banned=artificials)
        infeas = sum((tab[i][ncols] for i in range(m) if basis[i] in artificials), start=ZERO)
        if infeas > 0:
            return LpSolution(status="infeasible")
        # degenerate artificials: pivot them out where a real column is usable
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncols):
                    if j not in artificials and tab[i][j] != 0:
                        pivot(tab, basis, i, j)
                        break

    cost2 = [ZERO] * ncols
    for j in range(n):
        cost2[j] = Fraction(lp.objective[j])
    status = run(cost2, banned=artificials)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][ncols]
    value = sum((c * v for c, v in zip(lp.objective, x)), start=ZERO)

    # dual of row i reads off the reduced cost of its initial identity column
    y_red = [ZERO] * ncols
    for i in range(m):
        cb = cost2[basis[i]]
        if cb != 0:
            for j in range(ncols):
                if tab[i][j] != 0:
                    y_red[j] += cb * tab[i][j]
    duals = []
    for i, (_, sense, _, mult) in enumerate(std_rows):
        col = art_of[i] if i in art_of else slack_of[i]
        y = y_red[col]
        duals.append(mult * y)
    return LpSolution(
        status="optimal",
        x=tuple(x),
        objective_value=value,
        duals=tuple(duals),
    )


class DualSimplex:
    """Feasibility of ``{x >= 0 : rows}``, kept across rows added later.

    Tableau rows hold the right-hand side at column 0, then the ``n_vars``
    variables, then one slack per row; row k starts with its slack basic.
    A ``<=`` row a.x <= b is kept as a.x + s = b, a ``>=`` row as
    -a.x + s = -b, and an ``=`` row as both.  ``add_row`` reduces a new row
    against the current basis and appends it with its slack basic, so the
    last basis stays; ``solve`` then pivots until every right-hand side is
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
        self.tab: list[list[Fraction]] = []
        self.basis: list[int] = []
        self.infeasible = False

    def add_row(self, coeffs: dict[int, Fraction], sense: str, rhs: Fraction) -> None:
        if sense not in ("<=", ">=", "="):
            raise ContractViolation(f"unknown sense {sense!r}")
        if any(not 0 <= j < self.n_vars for j in coeffs):
            raise ContractViolation("row refers to a variable outside n_vars")
        if sense != ">=":
            self._append(coeffs, Fraction(rhs), ONE)
        if sense != "<=":
            self._append(coeffs, Fraction(rhs), -ONE)

    def _append(self, coeffs: dict[int, Fraction], rhs: Fraction, sign: Fraction) -> None:
        width = 1 + self.n_vars + len(self.tab)
        row = [ZERO] * (width + 1)
        row[0] = sign * rhs
        for j, a in coeffs.items():
            row[1 + j] = sign * a
        row[width] = ONE
        # zero the new row in every basic column
        for base, b in zip(self.tab, self.basis):
            f = row[b]
            if f:
                for j, a in enumerate(base):
                    if a:
                        row[j] -= f * a
        for base in self.tab:
            base.append(ZERO)
        self.tab.append(row)
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
                x = [ZERO] * self.n_vars
                for row, b in zip(tab, basis):
                    if b <= self.n_vars:
                        x[b - 1] = row[0]
                return tuple(x)
            row = tab[leave]
            enter = next((j for j in range(1, len(row)) if row[j] < 0), 0)
            if enter:
                pivot(tab, basis, leave, enter)
            else:
                self.infeasible = True
        return None
