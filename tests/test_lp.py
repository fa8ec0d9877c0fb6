import random
from collections import Counter
from fractions import Fraction

import pytest

from ocf.core import ContractViolation
from ocf.lp import LinearProgram, solve_lp
from conftest import feasible_vertex, row_holds

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


def _random_lp(rng: random.Random):
    n = rng.randint(1, 4)
    objective = [F(rng.randint(-5, 3), rng.choice((1, 2))) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {j: F(rng.randint(-2, 4), rng.choice((1, 1, 3))) for j in range(n) if rng.random() < 0.7}
        sense = rng.choice(("<=", "<=", ">=", ">=", "="))
        rows.append((coeffs, sense, F(rng.randint(-3, 8), rng.choice((1, 2)))))
    return n, objective, rows


def _dual_rows(n, objective, rows):
    """The dual feasibility system A^T y >= c, y >= 0 on <= rows, y <= 0 on
    >= rows, y free on = rows, over non-negative variables: y = u on a <=
    row, y = -u on a >= row and y = u - v on an = row."""
    columns = []
    for coeffs, sense, _ in rows:
        if sense != ">=":
            columns.append(coeffs)
        if sense != "<=":
            columns.append({j: -a for j, a in coeffs.items()})
    dual = [
        ({k: col[j] for k, col in enumerate(columns) if j in col}, ">=", objective[j])
        for j in range(n)
    ]
    return len(columns), dual


def test_random_lps_certify_themselves():
    """Seeded random LPs of all three senses, each answer checked by its own
    certificate: an optimum by a feasible x and duals of the right sign with
    A^T y >= c and y.b equal to the value; "infeasible" by finding no vertex
    of the rows; "unbounded" by a vertex of the rows and none of the dual
    system, both by enumerating tight constraints."""
    rng = random.Random(97)
    outcomes = Counter()
    for _ in range(600):
        n, objective, rows = _random_lp(rng)
        lp = LinearProgram(n_vars=n, objective=objective)
        for row in rows:
            lp.add_row(*row)
        sol = solve_lp(lp)
        outcomes[sol.status] += 1
        if sol.status == "optimal":
            x, y = sol.x, sol.duals
            assert x is not None and y is not None and len(y) == len(rows)
            assert min(x) >= 0 and all(row_holds(x, *row) for row in rows)
            assert sol.objective_value == sum(c * v for c, v in zip(objective, x))
            for yi, (_, sense, _) in zip(y, rows):
                assert {"<=": yi >= 0, ">=": yi <= 0, "=": True}[sense]
            for j in range(n):
                covered = sum(yi * coeffs.get(j, 0) for yi, (coeffs, _, _) in zip(y, rows))
                assert covered >= objective[j]
            assert sum(yi * rhs for yi, (_, _, rhs) in zip(y, rows)) == sol.objective_value
        elif sol.status == "infeasible":
            assert feasible_vertex(n, rows) is None
        else:
            assert sol.status == "unbounded"
            assert feasible_vertex(n, rows) is not None
            assert feasible_vertex(*_dual_rows(n, objective, rows)) is None
    assert min(outcomes.values()) >= 100, outcomes
