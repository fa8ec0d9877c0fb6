"""Acceptance suite: every exit criterion, exact rational equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All agreement checks are bit-exact (no tolerances); the two
timing checks assert the stated wall-clock budgets.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from itertools import islice

from ocf.arbitration import CONSERVATIVE, OPTIMISTIC, OPTIMISTIC_CLAMPED, REFINED, Deviation
from ocf.core import (
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
    structure_value,
    structure_weight,
    validate_outcome,
)
from ocf.gadgets import (
    X3cInstance,
    has_exact_cover,
    set_cover_arbitration_gadget,
    x3c_gadget,
)
from ocf.lbg import (
    iter_lbg_deviations,
    lbg_best_deviation,
    lbg_core_outcome,
    lbg_optimal,
    lbg_verify_core,
)
from ocf.oracle import (
    EnumerationBudget,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    brute_max_excess,
    count_structures,
    enumerate_structures,
    superadditive_cover,
)
from ocf.tree import (
    arbval_local,
    arbval_tree,
    checkcore_tree,
    is_stable_tree,
    max_excess_tree,
    optval_tree,
)
from ocf.treewidth import heuristic_decomposition, is_stable_tw, max_excess_tw, optval_tw
from conftest import (
    random_graph_game,
    random_lbg_instance,
    random_outcome,
    random_structure,
    random_tree_game,
)

F = Fraction
RULES3 = (CONSERVATIVE, REFINED, OPTIMISTIC)
RULES4 = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)
ORACLE_BUDGET = EnumerationBudget(max_agents=8, max_weight=4, max_structures=10**7)
X3C_BUDGET = EnumerationBudget(max_agents=16, max_weight=4, max_structures=10**7)


def criterion(num: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")

        return run

    return wrap


@criterion(1, "oracle equivalence of OptVal on 200 random tree games")
def test_criterion_1():
    rng = random.Random(20240201)
    started = time.perf_counter()
    games = 0
    while games < 200:
        g = random_tree_game(rng, nmax=5, wmax=3, vmax=10)
        c = g.weights if rng.random() < 0.3 else tuple(rng.randint(0, w) for w in g.weights)
        if count_structures(g, c, cap=20_000) > 20_000:
            continue  # keep the exhaustive leg at desk scale
        tree_value, witness = optval_tree(g, c)
        cover_value, cover_witness = superadditive_cover(g, c, ORACLE_BUDGET)
        best = max(
            (structure_value(g, cs) for cs in enumerate_structures(g, c, ORACLE_BUDGET)),
            default=F(0),
        )
        assert tree_value == cover_value == best
        assert structure_weight(witness, g.n) == c and structure_value(g, witness) == tree_value
        assert structure_value(g, cover_witness) == cover_value
        games += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"took {elapsed:.1f}s, budget is 60s"


@criterion(2, "X3C gadget yes/no labels on hand-built instances")
def test_criterion_2():
    s = lambda *xs: frozenset(xs)
    labeled = [
        (X3cInstance(3, (s(0, 1, 2),)), True),
        (X3cInstance(6, (s(0, 1, 2), s(0, 1, 3))), False),
        (X3cInstance(6, (s(0, 1, 2), s(3, 4, 5))), True),
        (X3cInstance(6, (s(0, 1, 2), s(1, 2, 3), s(3, 4, 5))), True),
        (X3cInstance(6, (s(0, 1, 2), s(1, 2, 3), s(2, 3, 4))), False),
        (X3cInstance(6, (s(0, 1, 3), s(2, 4, 5))), True),
        (X3cInstance(6, (s(0, 2, 4), s(1, 3, 5), s(0, 1, 2))), True),
        (X3cInstance(6, (s(0, 1, 2), s(0, 3, 4), s(0, 4, 5))), False),
        (X3cInstance(6, (s(1, 2, 4), s(0, 3, 5))), True),
        (X3cInstance(6, (s(0, 1, 4), s(1, 2, 3))), False),
        (X3cInstance(6, (s(3, 4, 5),)), False),
    ]
    assert len(labeled) >= 10
    for inst, label in labeled:
        assert has_exact_cover(inst) == label  # independent brute-force decider
        g, threshold = x3c_gadget(inst)
        value, _ = superadditive_cover(g, g.weights, X3C_BUDGET)
        assert (value >= threshold) == label


@criterion(3, "treewidth OptVal equals oracle and tree specialisation")
def test_criterion_3():
    rng = random.Random(20240203)
    for _ in range(100):
        g = random_graph_game(rng, nmax=5, wmax=3)
        c = tuple(rng.randint(0, w) for w in g.weights)
        t = heuristic_decomposition(g.interaction)
        tw_value, witness = optval_tw(g, t, c)
        assert tw_value == superadditive_cover(g, c, ORACLE_BUDGET)[0]
        assert structure_weight(witness, g.n) == c
        assert structure_value(g, witness) == tw_value
    for _ in range(30):
        g = random_tree_game(rng, nmax=5, wmax=3)
        c = tuple(rng.randint(0, w) for w in g.weights)
        t = heuristic_decomposition(g.interaction)
        assert optval_tw(g, t, c)[0] == optval_tree(g, c)[0]


@criterion(4, "ArbVal agreement: local DP = tree DP = brute force")
def test_criterion_4():
    rng = random.Random(20240204)
    for trial in range(100):
        g = random_tree_game(rng, nmax=4, wmax=3)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        rule = RULES4[trial % 4]
        reference, _ = brute_arbval(g, rule, o, S, ORACLE_BUDGET)
        assert arbval_local(g, rule, o, S) == reference
        assert arbval_tree(g, rule, o, S) == reference


@criterion(5, "CheckCore agreement on membership and maximal excess")
def test_criterion_5():
    rng = random.Random(20240205)
    for trial in range(60):
        g = random_tree_game(rng, nmax=4, wmax=3)
        o = random_outcome(rng, g)
        rule = RULES4[trial % 4]
        brute_value, _ = brute_max_excess(g, rule, o, ORACLE_BUDGET)
        tree_value, _ = max_excess_tree(g, rule, o)
        t = heuristic_decomposition(g.interaction)
        tw_value, _ = max_excess_tw(g, rule, o, t)
        assert tree_value == brute_value == tw_value
        assert (checkcore_tree(g, rule, o) is None) == (
            brute_checkcore(g, rule, o, ORACLE_BUDGET) is None
        )
    for trial in range(40):
        g = random_graph_game(rng, nmax=4, wmax=3)
        o = random_outcome(rng, g)
        rule = RULES4[trial % 4]
        t = heuristic_decomposition(g.interaction)
        brute_value, _ = brute_max_excess(g, rule, o, ORACLE_BUDGET)
        assert max_excess_tw(g, rule, o, t)[0] == brute_value


@criterion(6, "Is-Stable soundness both ways on 50 random tree games and 40 cyclic ones")
def test_criterion_6():
    rng = random.Random(20240206)
    lanes = (
        ("tree", 50, RULES3, lambda rng: random_tree_game(rng, nmax=4, wmax=3), is_stable_tree),
        ("tw", 40, RULES4, lambda rng: random_graph_game(rng, nmax=4, wmax=2), is_stable_tw),
    )
    for lane, trials, rules, make_game, is_stable in lanes:
        found_stable = found_none = 0
        for trial in range(trials):
            g = make_game(rng)
            if trial % 2:
                cs = random_structure(rng, g)
            else:
                _, cs = optval_tw(g, None, g.weights)  # optimal structures stabilize more often
            rule = rules[trial % len(rules)]
            imputation = is_stable(g, rule, cs)
            if imputation is not None:
                found_stable += 1
                o = Outcome(structure=cs, imputation=imputation)
                assert validate_outcome(o, g) == []
                assert brute_checkcore(g, rule, o, ORACLE_BUDGET) is None
            else:
                found_none += 1
                assert brute_is_stable(g, rule, cs, ORACLE_BUDGET) is None
        assert found_stable > 0 and found_none > 0, lane  # both branches exercised


@criterion(7, "LBG duality, slackness, core theorem, proof inequalities")
def test_criterion_7():
    rng = random.Random(20240207)
    started = time.perf_counter()
    for _ in range(100):
        inst = random_lbg_instance(rng, nmax=5, tmax=8)
        sol = lbg_optimal(inst, cross_check=True)
        # strong duality and complementary slackness, spelled out
        dual_value = sum((w * d for w, d in zip(inst.weights, sol.duals)), start=F(0))
        assert dual_value == sol.value
        for j, task in enumerate(inst.tasks):
            covered = sum((sol.duals[i] for i in task.agents), start=F(0))
            assert covered >= task.pi
            if sol.allocation[j] > 0:
                assert covered == task.pi
        out = lbg_core_outcome(inst, sol)
        total = sum((out.payoff_to_agent(i) for i in range(inst.n)), start=F(0))
        assert total == sol.value
        assert lbg_verify_core(inst, out, F(1)) is None
        assert lbg_verify_core(inst, out, F(1, 2)) is None
        for mask in range(1, 1 << inst.n):
            S = frozenset(i for i in range(inst.n) if mask >> i & 1)
            for abandon, z in islice(iter_lbg_deviations(inst, out, S, F(1)), 8):
                rec = lbg_best_deviation(inst, out, S, abandon, z)
                weighted_z = sum((sol.duals[i] * rec.withdrawn[i] for i in S), start=F(0))
                marginal = sum((z[j] * inst.tasks[j].pi for j in z), start=F(0))
                assert weighted_z <= marginal
                weighted_nu = sum((sol.duals[i] * rec.nu[i] for i in S), start=F(0))
                assert weighted_nu <= out.payoff_to_set(S)
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"took {elapsed:.1f}s, budget is 120s"


@criterion(8, "hand-derived golden fixtures G1/O1 and L1")
def test_criterion_8():
    cf = make_charfun(
        2,
        2,
        [
            ((0,), (1,), F(1)),
            ((0,), (2,), F(3)),
            ((1,), (1,), F(2)),
            ((0, 1), (1, 1), F(4)),
        ],
    )
    g1 = GameDef(n=2, weights=(2, 1), charfun=cf,
                 interaction=InteractionGraph.from_pairs(2, [(0, 1)]))
    o1 = Outcome(structure=((1, 1), (1, 0)),
                 imputation=((F(2), F(2)), (F(1), F(0))))
    assert optval_tree(g1, (2, 1))[0] == 5
    assert superadditive_cover(g1, (2, 1))[0] == 5
    for rule in (CONSERVATIVE, REFINED):
        for S, expected in ((frozenset({0}), F(3)), (frozenset({1}), F(2)),
                            (frozenset({0, 1}), F(5))):
            value, _ = brute_arbval(g1, rule, o1, S)
            assert value == expected
            assert value - o1.payoff_to_set(S) == 0  # every excess is exactly zero
        assert checkcore_tree(g1, rule, o1) is None

    from ocf.lbg import make_lbg_instance

    l1 = make_lbg_instance(
        2, [F(2), F(1)],
        [({0, 1}, F(3)), ({0}, F(1)), ({1}, F(0))],
    )
    sol = lbg_optimal(l1, cross_check=True)
    assert sol.value == 4
    assert sol.duals == (F(1), F(2))
    out = lbg_core_outcome(l1, sol)
    assert (out.payoff_to_agent(0), out.payoff_to_agent(1)) == (F(2), F(2))


@criterion(9, "pseudo-polynomial scaling smoke: 50-agent path, 30-agent cycle")
def test_criterion_9():
    rng = random.Random(20240209)
    n, wm = 50, 20
    edges = [(i, i + 1) for i in range(n - 1)]
    entries = {}
    for a, b in edges:
        for _ in range(6):
            entries[((a, b), (rng.randint(1, wm), rng.randint(1, wm)))] = F(rng.randint(1, 100))
    for i in range(n):
        for _ in range(3):
            entries[((i,), (rng.randint(1, wm),))] = F(rng.randint(1, 40))
    cf = make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    g = GameDef(n=n, weights=(wm,) * n, charfun=cf,
                interaction=InteractionGraph.from_pairs(n, edges))
    started = time.perf_counter()
    value, witness = optval_tree(g, g.weights)
    elapsed = time.perf_counter() - started
    assert structure_value(g, witness) == value
    assert elapsed < 5, f"path took {elapsed:.2f}s, budget is 5s"

    n, wm = 30, 10
    edges = [(i, (i + 1) % n) for i in range(n)]
    entries = {}
    for a, b in [tuple(sorted(e)) for e in edges]:
        for _ in range(5):
            entries[((a, b), (rng.randint(1, wm), rng.randint(1, wm)))] = F(rng.randint(1, 100))
    for i in range(n):
        entries[((i,), (rng.randint(1, wm),))] = F(rng.randint(1, 40))
    cf = make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    g = GameDef(n=n, weights=(wm,) * n, charfun=cf,
                interaction=InteractionGraph.from_pairs(n, edges))
    t = heuristic_decomposition(g.interaction)
    assert t.width == 2
    started = time.perf_counter()
    value, witness = optval_tw(g, t, g.weights)
    elapsed = time.perf_counter() - started
    assert structure_value(g, witness) == value
    assert elapsed < 30, f"cycle took {elapsed:.2f}s, budget is 30s"


@criterion(10, "locality counterexample and set-cover deviation labels")
def test_criterion_10():
    s = lambda *xs: frozenset(xs)
    g, o, arb, _ = set_cover_arbitration_gadget(s(0, 1), (s(0), s(1)), 2)
    S = frozenset({0})
    big = len(o.structure) - 1
    d1 = Deviation()
    d2 = Deviation(withdrawals={0: (1, 0)})
    assert d1.withdrawal(big, 2) == d2.withdrawal(big, 2)
    pays1 = arb.deviation_payoffs(g, o, S, d1)
    pays2 = arb.deviation_payoffs(g, o, S, d2)
    assert pays1[big] != pays2[big]  # the gadget rule fails the locality probe
    for rule in RULES4:
        loc1 = rule.deviation_payoffs(g, o, S, d1)
        loc2 = rule.deviation_payoffs(g, o, S, d2)
        assert loc1[big] == loc2[big]  # every local rule passes it

    labeled = [
        (s(0), (s(0),), 1, True),
        (s(0, 1), (s(0),), 1, False),
        (s(0, 1, 2), (s(0, 1), s(2), s(1, 2)), 2, True),
        (s(0, 1, 2), (s(0, 1), s(1, 2)), 1, False),
        (s(0, 1, 2, 3), (s(0, 1), s(1, 2), s(2, 3)), 2, True),
        (s(0, 1, 2, 3), (s(0, 1), s(1, 2), s(0, 2)), 3, False),
    ]
    assert len(labeled) >= 5
    budget = EnumerationBudget(max_agents=8, max_weight=6, max_structures=10**7)
    for elements, subsets, cover_size, label in labeled:
        g, o, arb, threshold = set_cover_arbitration_gadget(elements, subsets, cover_size)
        value, _ = brute_arbval(g, arb, o, frozenset({0}), budget)
        assert (value >= threshold) == label
