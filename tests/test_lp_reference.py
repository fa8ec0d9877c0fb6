"""The integer tableau of ``ocf.lp`` against the rational tableau it stands
for.

``RationalDualSimplex`` and ``rational_solve_lp`` below are the simplex of
``ocf.lp`` written on ``Fraction`` rows with a Gauss-Jordan ``pivot`` that
scales each pivot row to 1, under the same Bland-type rules.  The integer
tableau keeps each row as a primitive positive multiple of the rational
one, so after every solve both must sit on the same basis with the same
status, vertex and duals, and each integer row divided by its basic entry
must be the rational row.  The systems are the seeded ones of
``test_stability.py`` (dual simplex against vertex enumeration, Beale's
rows) and of ``test_lp.py`` (programs that certify themselves).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import ocf.lp
from ocf.lp import DualSimplex, LinearProgram, LpSolution, solve_lp
from test_lp import _random_lp
from test_stability import _beale_rows, _random_system

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_pivot(tab: list[list[Fraction]], basis: list[int], leave: int, enter: int) -> list[Fraction]:
    """Gauss-Jordan pivot on (leave, enter): column ``enter`` becomes a unit
    column with its 1 in row ``leave``.  Returns the scaled pivot row."""
    row = tab[leave]
    piv = row[enter]
    if piv != 1:
        row[:] = [a / piv for a in row]
    for i, other in enumerate(tab):
        f = other[enter]
        if i != leave and f:
            other[:] = [a - f * b for a, b in zip(other, row)]
    basis[leave] = enter
    return row


class RationalDualSimplex:
    """``ocf.lp.DualSimplex`` on ``Fraction`` rows: each row's basic entry
    is 1; a ``>=`` row is kept negated; the leaving row is the infeasible one
    whose basic column is lowest, the entering column the lowest negative
    entry in it."""

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.tab: list[list[Fraction]] = []
        self.basis: list[int] = []
        self.infeasible = False

    def add_row(self, coeffs: dict[int, Fraction], sense: str, rhs: Fraction) -> None:
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
        for base, b in zip(self.tab, self.basis):
            f = row[b]
            if f:
                row = [a - f * c for a, c in zip(row, base + [ZERO])]
        for base in self.tab:
            base.append(ZERO)
        self.tab.append(row)
        self.basis.append(width)

    def solve(self) -> tuple[Fraction, ...] | None:
        tab, basis = self.tab, self.basis
        while not self.infeasible:
            infeasible = [i for i, row in enumerate(tab) if row[0] < 0]
            if not infeasible:
                return self.point()
            leave = min(infeasible, key=lambda i: basis[i])
            enter = next((j for j in range(1, len(tab[leave])) if tab[leave][j] < 0), 0)
            if enter:
                rational_pivot(tab, basis, leave, enter)
            else:
                self.infeasible = True
        return None

    def point(self) -> tuple[Fraction, ...]:
        x = [ZERO] * self.n_vars
        for row, b in zip(self.tab, self.basis):
            if b <= self.n_vars:
                x[b - 1] = row[0]
        return tuple(x)


def rational_solve_lp(lp: LinearProgram) -> tuple[LpSolution, RationalDualSimplex]:
    """``ocf.lp.solve_lp`` on the rational tableau, which it also returns."""
    n = lp.n_vars
    system = RationalDualSimplex(n)
    for coeffs, sense, rhs in lp.rows:
        system.add_row({j: a for j, a in enumerate(coeffs) if a}, sense, rhs)
    if system.solve() is None:
        return LpSolution(status="infeasible"), system
    tab, basis = system.tab, system.basis
    width = len(tab[0]) if tab else 1 + n
    red = [ZERO, *map(Fraction, lp.objective)] + [ZERO] * (width - 1 - n)
    for row, b in zip(tab, basis):
        f = red[b]
        red = [a - f * c for a, c in zip(red, row)]
    while True:
        enter = next((j for j in range(1, width) if red[j] > 0), 0)
        if not enter:
            break
        rows = [i for i, row in enumerate(tab) if row[enter] > 0]
        if not rows:
            return LpSolution(status="unbounded"), system
        leave = min(rows, key=lambda i: (tab[i][0] / tab[i][enter], basis[i]))
        f = red[enter]
        row = rational_pivot(tab, basis, leave, enter)
        red = [a - f * c for a, c in zip(red, row)]
    x = system.point()
    value = sum((c * v for c, v in zip(lp.objective, x)), start=ZERO)
    duals = []
    slack = 1 + n
    for _, sense, _ in lp.rows:
        y = ZERO
        if sense != ">=":
            y -= red[slack]
            slack += 1
        if sense != "<=":
            y += red[slack]
            slack += 1
        duals.append(y)
    return LpSolution(status="optimal", x=x, objective_value=value, duals=tuple(duals)), system


def assert_same_tableau(system, reference) -> None:
    """Same basis and verdict; every entry an ``int``; every integer row a
    primitive positive multiple of its rational row, which it gives back
    divided by its basic entry."""
    assert system.basis == reference.basis
    assert system.infeasible == reference.infeasible
    for row, b, want in zip(system.tab, system.basis, reference.tab, strict=True):
        assert all(type(a) is int for a in row)
        assert row[b] > 0 and math.gcd(*row) == 1
        assert [Fraction(a, row[b]) for a in row] == want


def _grow(n: int, rows) -> None:
    """Add the rows one at a time to both tableaux, solving after each."""
    system, reference = DualSimplex(n), RationalDualSimplex(n)
    for row in rows:
        system.add_row(*row)
        reference.add_row(*row)
        assert_same_tableau(system, reference)
        assert system.solve() == reference.solve()
        assert_same_tableau(system, reference)


def test_dual_simplex_pivots_as_the_rational_tableau():
    rng = random.Random(83)
    for _ in range(300):
        n, rows = _random_system(rng)
        _grow(n, rows)
        # all rows first, then one solve
        system, reference = DualSimplex(n), RationalDualSimplex(n)
        for row in rows:
            system.add_row(*row)
            reference.add_row(*row)
        assert system.solve() == reference.solve()
        assert_same_tableau(system, reference)
    _grow(2, _beale_rows())


def test_solve_lp_pivots_as_the_rational_tableau(monkeypatch):
    """Both phases of ``solve_lp`` end where the rational tableau's do, with
    the same status, vertex, value and duals, typed as ``Fraction``."""
    systems = []

    class Recorded(DualSimplex):
        def __init__(self, n_vars: int):
            super().__init__(n_vars)
            systems.append(self)

    monkeypatch.setattr(ocf.lp, "DualSimplex", Recorded)
    rng = random.Random(97)
    for _ in range(600):
        n, objective, rows = _random_lp(rng)
        lp = LinearProgram(n_vars=n, objective=objective)
        for row in rows:
            lp.add_row(*row)
        systems.clear()
        sol = solve_lp(lp)
        want, reference = rational_solve_lp(lp)
        assert sol == want
        for values in (sol.x, sol.duals):
            assert all(type(v) is Fraction for v in values or ())
        assert_same_tableau(systems[0], reference)
