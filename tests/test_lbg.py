import random
from fractions import Fraction
from itertools import islice

import pytest

from ocf.core import ContractViolation
from ocf.lbg import (
    LbgOutcome,
    gen_bipartite_market,
    gen_multicommodity_flow,
    gen_routing,
    iter_lbg_deviations,
    lbg_best_deviation,
    lbg_coalition_value,
    lbg_core_outcome,
    lbg_optimal,
    lbg_verify_core,
    make_lbg_instance,
    validate_lbg_outcome,
)
from ocf.oracle import BudgetExceededError
from conftest import random_lbg_instance

F = Fraction


def test_instance_invariants():
    inst = make_lbg_instance(2, [F(1), F(1)], [({0, 1}, F(2))])
    # singleton tasks are auto-inserted
    assert len(inst.tasks) == 3
    assert inst.singleton_index(0) != inst.singleton_index(1)
    with pytest.raises(ContractViolation):
        make_lbg_instance(2, [F(1), F(1)], [({0, 1}, F(2)), ({0, 1}, F(3))])
    with pytest.raises(ContractViolation):
        make_lbg_instance(1, [F(0)], [])


def test_coalition_value():
    inst = make_lbg_instance(2, [F(2), F(2)], [({0, 1}, F(3))])
    assert lbg_coalition_value(inst, {0: F(2), 1: F(1)}) == 3  # bottleneck is 1
    assert lbg_coalition_value(inst, {0: F(1)}) == 0
    assert lbg_coalition_value(inst, {}) == 0


def test_single_agent_example():
    inst = make_lbg_instance(1, [F(2)], [({0}, F(3))])
    sol = lbg_optimal(inst, cross_check=True)
    assert sol.value == 6 and sol.allocation[0] == 2 and sol.duals == (F(3),)
    out = lbg_core_outcome(inst, sol)
    assert out.payoff_to_agent(0) == 6


def test_l1_example(l1):
    sol = lbg_optimal(l1, cross_check=True)
    assert sol.value == 4
    assert sol.allocation[0] == 1 and sol.allocation[1] == 1
    assert sol.duals == (F(1), F(2))
    out = lbg_core_outcome(l1, sol)
    assert out.payoff_to_agent(0) == 2 and out.payoff_to_agent(1) == 2
    assert validate_lbg_outcome(out) == []


def test_degenerate_dual_invariants():
    inst = make_lbg_instance(2, [F(1), F(1)], [({0, 1}, F(2))])
    sol = lbg_optimal(inst, cross_check=True)
    assert sol.value == 2
    assert sol.duals[0] + sol.duals[1] == 2  # optimum is non-unique; only the sum is pinned


def test_all_zero_prices():
    inst = make_lbg_instance(2, [F(1), F(2)], [])
    sol = lbg_optimal(inst)
    assert sol.value == 0
    out = lbg_core_outcome(inst, sol)
    assert out.payoff_to_set({0, 1}) == 0
    assert lbg_verify_core(inst, out) is None


def test_best_deviation_examples(l1):
    out = lbg_core_outcome(l1)
    # S = {0} must abandon its solo task (index 1); keeping the joint task costs nothing
    d = lbg_best_deviation(l1, out, frozenset({0}), frozenset({1}), {})
    assert d.alpha == 1 and d.net == 1
    assert d.total <= out.payoff_to_agent(0)
    # withdrawing the unit from the joint task frees 2 units but pays its price
    d2 = lbg_best_deviation(l1, out, frozenset({0}), frozenset({1}), {0: F(1)})
    assert d2.alpha == 2 and d2.net == -1
    # the grand set abandoning everything regains the optimal value
    executed = frozenset(j for j in range(len(l1.tasks)) if out.levels[j] > 0)
    dN = lbg_best_deviation(l1, out, frozenset({0, 1}), executed, {})
    assert dN.alpha == 4 and dN.total == 4


def test_best_deviation_preconditions(l1):
    out = lbg_core_outcome(l1)
    with pytest.raises(ContractViolation):
        lbg_best_deviation(l1, out, frozenset({0}), frozenset(), {})  # must abandon own task
    with pytest.raises(ContractViolation):
        lbg_best_deviation(l1, out, frozenset({0}), frozenset({1}), {0: F(9)})


def test_best_deviation_refuses_unknown_tasks_and_agents():
    """Task indices and agents outside the instance are refused.  Task -3
    once read as task 0, counted as abandoned and as kept at once (total 3
    against 1 and 2), and agents -1 and 2 of a two-agent instance got a
    deviation record."""
    inst = make_lbg_instance(2, [1, 1], [({0, 1}, 2), ({0}, 1)])
    out = lbg_core_outcome(inst)
    S = frozenset({0})
    assert lbg_best_deviation(inst, out, S, frozenset({0}), {}).total == 1
    assert lbg_best_deviation(inst, out, S, frozenset(), {}).total == 2
    for j in (-3, 7):
        with pytest.raises(ContractViolation, match=f"task {j} out of range"):
            lbg_best_deviation(inst, out, S, frozenset({j}), {})
    for i in (-1, 2):
        with pytest.raises(ContractViolation, match=f"agent {i} out of range for n=2"):
            lbg_best_deviation(inst, out, frozenset({i}), frozenset(), {})
        with pytest.raises(ContractViolation, match=f"agent {i} out of range for n=2"):
            list(iter_lbg_deviations(inst, out, frozenset({i}), F(1)))


def test_verify_core_examples(l1):
    out = lbg_core_outcome(l1)
    assert lbg_verify_core(l1, out, F(1)) is None
    assert lbg_verify_core(l1, out, F(1, 2)) is None
    # paying everything to agent 0 stays grid-core (agent 1 alone earns nothing)
    # but the imputation itself is flagged by the validator in the 2-agent market
    inst = make_lbg_instance(2, [F(1), F(1)], [({0, 1}, F(2))])
    unfair = LbgOutcome(
        instance=inst,
        levels=(F(1), F(0), F(0)),
        payoffs=({0: F(2), 1: F(0)}, {}, {}),
    )
    assert validate_lbg_outcome(unfair) == []
    assert lbg_verify_core(inst, unfair, F(1)) is None


def test_verify_core_detects_violation():
    inst = make_lbg_instance(1, [F(2)], [({0}, F(3))])
    robbed = LbgOutcome(instance=inst, levels=(F(2),), payoffs=({0: F(6)},))
    assert lbg_verify_core(inst, robbed) is None
    # an outcome where resources idle while the singleton pays: unused weight can deviate
    lazy = LbgOutcome(instance=inst, levels=(F(1),), payoffs=({0: F(3)},))
    assert validate_lbg_outcome(lazy) == []
    violation = lbg_verify_core(inst, lazy)
    assert violation is not None
    assert violation.agents == frozenset({0}) and violation.total == 6


def test_verify_core_misallocated_pair():
    # both agents can re-coordinate: value 2 paid, but reshuffling earns 10
    inst = make_lbg_instance(2, [F(2), F(2)], [({0, 1}, F(1)), ({0}, F(5))])
    bad = LbgOutcome(
        instance=inst,
        levels=(F(2), F(0), F(0)),
        payoffs=({0: F(1), 1: F(1)}, {}, {}),
    )
    assert validate_lbg_outcome(bad) == []
    violation = lbg_verify_core(inst, bad)
    assert violation is not None and violation.total > bad.payoff_to_set(violation.agents)


def test_theorem_reproduction_sample():
    rng = random.Random(107)
    for _ in range(25):
        inst = random_lbg_instance(rng)
        sol = lbg_optimal(inst, cross_check=True)
        out = lbg_core_outcome(inst, sol)
        total = sum((out.payoff_to_agent(i) for i in range(inst.n)), start=F(0))
        assert total == sol.value
        assert lbg_verify_core(inst, out, F(1)) is None
        for mask in range(1, 1 << inst.n):
            S = frozenset(i for i in range(inst.n) if mask >> i & 1)
            for abandon, z in islice(iter_lbg_deviations(inst, out, S, F(1)), 6):
                rec = lbg_best_deviation(inst, out, S, abandon, z)
                weighted_withdrawal = sum(
                    (sol.duals[i] * rec.withdrawn[i] for i in S), start=F(0)
                )
                marginal = sum((z[j] * inst.tasks[j].pi for j in z), start=F(0))
                assert weighted_withdrawal <= marginal
                weighted_nu = sum((sol.duals[i] * rec.nu[i] for i in S), start=F(0))
                assert weighted_nu <= out.payoff_to_set(S)


def test_deviation_enumeration_budget(l1):
    out = lbg_core_outcome(l1)
    with pytest.raises(BudgetExceededError):
        list(iter_lbg_deviations(l1, out, frozenset({0}), F(1, 4), max_count=1))


# ---------------------------------------------------------------------------
# generators


def test_gen_flow_examples():
    inst = gen_multicommodity_flow([(0, 1)], [(0, 1, F(1), F(5))], {(0, 1): F(1)})
    assert lbg_optimal(inst).value == 5
    # unreachable pair leaves the supplier with only its singleton
    inst = gen_multicommodity_flow([(1, 0)], [(0, 1, F(1), F(5))], {(1, 0): F(1)})
    assert lbg_optimal(inst).value == 0
    assert any(t.agents == frozenset({0}) for t in inst.tasks)
    # two internally disjoint routes, each capacity 1, supplier has 2 units
    inst = gen_multicommodity_flow(
        [(0, 1), (1, 3), (0, 2), (2, 3)],
        [(0, 3, F(2), F(5))],
        {(0, 1): F(1), (1, 3): F(1), (0, 2): F(1), (2, 3): F(1)},
    )
    assert lbg_optimal(inst).value == 10


def test_gen_flow_path_budget():
    edges = [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)]
    with pytest.raises(BudgetExceededError):
        gen_multicommodity_flow(
            edges,
            [(0, 3, F(1), F(1))],
            {e: F(1) for e in edges},
            max_paths=1,
        )


def test_gen_market_examples():
    inst = gen_bipartite_market([F(1)], [F(1)], {(0, 0): F(2)})
    sol = lbg_optimal(inst)
    assert sol.value == 2 and sol.duals[0] + sol.duals[1] == 2
    assert lbg_optimal(gen_bipartite_market([F(1)], [F(1)], {})).value == 0
    inst = gen_bipartite_market([F(1), F(1)], [F(1)], {(0, 0): F(3), (1, 0): F(1)})
    assert lbg_optimal(inst).value == 3


def test_gen_routing_examples():
    inst = gen_routing(3, [(0, 1), (1, 2)], [F(1)] * 3, [(0, 2, F(1))])
    assert lbg_optimal(inst).value == 1
    assert any(t.agents == frozenset({0, 1, 2}) for t in inst.tasks)
    # unreachable demand contributes nothing
    inst = gen_routing(2, [(1, 0)], [F(1)] * 2, [(0, 1, F(1))])
    assert lbg_optimal(inst).value == 0
    # diamond: endpoints carry both routes, so they need capacity 2
    inst = gen_routing(
        4, [(0, 1), (1, 3), (0, 2), (2, 3)], [F(2), F(1), F(1), F(2)], [(0, 3, F(1))]
    )
    assert lbg_optimal(inst).value == 2


def test_generated_instances_are_core_stable():
    gens = [
        gen_multicommodity_flow(
            [(0, 1), (1, 2)], [(0, 2, F(3, 2), F(2))], {(0, 1): F(1), (1, 2): F(2)}
        ),
        gen_bipartite_market([F(2), F(1)], [F(3, 2)], {(0, 0): F(1), (1, 0): F(4)}),
        gen_routing(3, [(0, 1), (1, 2), (0, 2)], [F(1), F(2), F(1)], [(0, 2, F(3))]),
    ]
    for inst in gens:
        out = lbg_core_outcome(inst)
        assert lbg_verify_core(inst, out, F(1, 2)) is None
