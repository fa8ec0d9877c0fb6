from fractions import Fraction

import pytest

from ocf.core import ContractViolation
from ocf.lp import LinearProgram, solve_lp

F = Fraction


def test_single_variable_box():
    lp = LinearProgram(n_vars=1, objective=[F(1)])
    lp.add_row({0: F(1)}, "<=", F(3))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(3),)
    assert sol.objective_value == 3


def test_two_variable_example():
    # max 3a + b st a + b <= 2, a <= 1
    lp = LinearProgram(n_vars=2, objective=[F(3), F(1)])
    lp.add_row({0: F(1), 1: F(1)}, "<=", F(2))
    lp.add_row({0: F(1)}, "<=", F(1))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(1), F(1))
    assert sol.objective_value == 4
    # duals: y1 = 1 (capacity), y2 = 2 (the a-bound)
    assert sol.duals == (F(1), F(2))


def test_infeasible():
    lp = LinearProgram(n_vars=1, objective=[F(1)])
    lp.add_row({0: F(1)}, ">=", F(1))
    lp.add_row({0: F(1)}, "<=", F(0))
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(n_vars=1, objective=[F(1)])
    lp.add_row({0: F(1)}, ">=", F(1))
    assert solve_lp(lp).status == "unbounded"


def test_equality_and_negative_rhs():
    # max x + y st x - y = -1, x + y <= 5
    lp = LinearProgram(n_vars=2, objective=[F(1), F(1)])
    lp.add_row({0: F(1), 1: F(-1)}, "=", F(-1))
    lp.add_row({0: F(1), 1: F(1)}, "<=", F(5))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 5
    assert sol.x == (F(2), F(3))


def test_exact_rationals():
    lp = LinearProgram(n_vars=2, objective=[F(1, 3), F(1, 7)])
    lp.add_row({0: F(2, 5), 1: F(1)}, "<=", F(9, 11))
    lp.add_row({0: F(1)}, "<=", F(1, 2))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x is not None
    assert sol.x[0] == F(1, 2)
    assert sol.x[1] == F(9, 11) - F(2, 5) * F(1, 2)
    assert sol.objective_value == F(1, 3) * sol.x[0] + F(1, 7) * sol.x[1]


def test_duals_certify_weak_duality():
    # duals of a <= system: y >= 0 and y.b equals the optimum exactly
    lp = LinearProgram(n_vars=3, objective=[F(2), F(3), F(1)])
    rows = [
        ({0: F(1), 1: F(2), 2: F(1)}, F(7)),
        ({0: F(3), 1: F(1)}, F(8)),
        ({1: F(1), 2: F(4)}, F(6)),
    ]
    for coeffs, rhs in rows:
        lp.add_row(coeffs, "<=", rhs)
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.duals is not None
    assert all(y >= 0 for y in sol.duals)
    assert sum(y * rhs for y, (_, rhs) in zip(sol.duals, rows)) == sol.objective_value
    # dual feasibility: A^T y >= c
    for j in range(3):
        covered = sum(
            sol.duals[i] * rows[i][0].get(j, F(0)) for i in range(len(rows))
        )
        assert covered >= lp.objective[j]


def test_malformed_rejected():
    lp = LinearProgram(n_vars=2, objective=[F(1)])
    with pytest.raises(ContractViolation):
        solve_lp(lp)
    lp = LinearProgram(n_vars=1, objective=[F(1)])
    lp.rows.append(([F(1)], "!=", F(0)))
    with pytest.raises(ContractViolation):
        solve_lp(lp)


def test_degenerate_is_deterministic():
    lp_rows = []
    for _ in range(3):
        lp = LinearProgram(n_vars=2, objective=[F(1), F(1)])
        lp.add_row({0: F(1), 1: F(1)}, "<=", F(1))
        lp.add_row({0: F(1)}, "<=", F(1))
        lp.add_row({1: F(1)}, "<=", F(1))
        lp_rows.append(solve_lp(lp))
    assert lp_rows[0].x == lp_rows[1].x == lp_rows[2].x
    assert all(s.objective_value == 1 for s in lp_rows)
