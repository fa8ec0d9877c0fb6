import random
from fractions import Fraction

import pytest

from ocf.arbitration import CONSERVATIVE, OPTIMISTIC, OPTIMISTIC_CLAMPED, REFINED, deviation_total
from ocf.core import (
    ContractViolation,
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
    structure_value,
    structure_weight,
    validate_outcome,
)
from ocf.oracle import (
    BudgetExceededError,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    brute_max_excess,
    superadditive_cover,
)
from ocf.tree import is_stable_tree, max_excess_tree, optval_tree
from ocf.treewidth import (
    TreeDecomposition,
    arbval_tw,
    checkcore_tw,
    forest_decomposition,
    heuristic_decomposition,
    is_stable_tw,
    max_excess_tw,
    optval_tw,
    restrict_decomposition,
    validate_decomposition,
)
from conftest import random_graph_game, random_outcome, random_structure, random_tree_game

RULES = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)


def triangle_graph():
    return InteractionGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])


def triangle_game():
    cf = make_charfun(
        3,
        2,
        [
            ((0, 1), (1, 1), Fraction(1)),
            ((1, 2), (1, 1), Fraction(1)),
            ((0, 2), (1, 1), Fraction(1)),
        ],
    )
    return GameDef(n=3, weights=(1, 1, 1), charfun=cf, interaction=triangle_graph())


def test_validate_examples():
    tri = triangle_graph()
    one_bag = TreeDecomposition(bags=(frozenset({0, 1, 2}),), edges=(), root=0)
    assert validate_decomposition(tri, one_bag) == []
    assert one_bag.width == 2
    path = InteractionGraph.from_pairs(3, [(0, 1), (1, 2)])
    two_bags = TreeDecomposition(
        bags=(frozenset({0, 1}), frozenset({1, 2})), edges=((0, 1),), root=0
    )
    assert validate_decomposition(path, two_bags) == []
    assert two_bags.width == 1
    bad = validate_decomposition(tri, two_bags)
    assert any("(0,2)" in p for p in bad)


def test_validate_running_intersection():
    graph = InteractionGraph.from_pairs(3, [(0, 1), (1, 2)])
    broken = TreeDecomposition(
        bags=(frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})),
        edges=((0, 1), (1, 2)),
        root=0,
    )
    assert any("not connected" in p for p in validate_decomposition(graph, broken))


def test_validate_missing_agent():
    graph = InteractionGraph.from_pairs(3, [(0, 1)])
    t = TreeDecomposition(bags=(frozenset({0, 1}),), edges=(), root=0)
    assert any("agent 2" in p for p in validate_decomposition(graph, t))
    assert validate_decomposition(graph, t, vertices={0, 1}) == []


def test_heuristic_examples():
    path = InteractionGraph.from_pairs(3, [(0, 1), (1, 2)])
    assert heuristic_decomposition(path).width == 1
    c4 = InteractionGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert heuristic_decomposition(c4).width == 2
    single = InteractionGraph.from_pairs(1, [])
    t = heuristic_decomposition(single)
    assert t.width == 0 and len(t.bags) == 1


def test_heuristic_always_valid():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        graph = InteractionGraph.from_pairs(n, edges)
        t = heuristic_decomposition(graph)
        assert validate_decomposition(graph, t) == []


def test_forest_decomposition_valid():
    rng = random.Random(107)
    graphs = [
        InteractionGraph.from_pairs(1, []),
        InteractionGraph.from_pairs(4, []),
        InteractionGraph.from_pairs(5, [(0, 3)]),
        InteractionGraph.from_pairs(7, [(4, 1), (1, 0), (2, 5), (5, 6)]),
    ]
    for _ in range(30):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.7]
        graphs.append(InteractionGraph.from_pairs(n, edges))
    for graph in graphs:
        t = forest_decomposition(graph)
        assert validate_decomposition(graph, t) == []
        assert t.width <= 1
        # the vertex-restricted form arbval_tree passes for a deviating set
        S = {i for i in range(graph.n) if rng.random() < 0.5}
        induced = InteractionGraph.from_pairs(
            graph.n, [(a, b) for a, b in graph.simple_edges() if a in S and b in S]
        )
        t = forest_decomposition(induced, S)
        assert validate_decomposition(graph, t, vertices=S) == []
        assert t.width <= 1
    assert len(forest_decomposition(InteractionGraph.from_pairs(4, [])).bags) == 4


def test_optval_examples(g1):
    one_bag = TreeDecomposition(bags=(frozenset({0, 1}),), edges=(), root=0)
    v, w = optval_tw(g1, one_bag, (2, 1))
    assert v == 5 and structure_weight(w, 2) == (2, 1) and structure_value(g1, w) == 5
    g = triangle_game()
    td = heuristic_decomposition(g.interaction)
    assert optval_tw(g, td, (1, 1, 1))[0] == 1
    assert optval_tw(g, td, (0, 0, 0))[0] == 0


def test_optval_rejects_bad_decomposition(g1):
    bad = TreeDecomposition(bags=(frozenset({0}),), edges=(), root=0)
    with pytest.raises(ContractViolation):
        optval_tw(g1, bad, (2, 1))


def test_optval_decomposition_invariance():
    rng = random.Random(73)
    for _ in range(25):
        g = random_graph_game(rng)
        c = tuple(rng.randint(0, w) for w in g.weights)
        td = heuristic_decomposition(g.interaction)
        one_bag = TreeDecomposition(bags=(frozenset(range(g.n)),), edges=(), root=0)
        assert optval_tw(g, td, c)[0] == optval_tw(g, one_bag, c)[0]


def test_optval_matches_oracle_and_tree():
    rng = random.Random(79)
    for _ in range(30):
        g = random_graph_game(rng)
        c = tuple(rng.randint(0, w) for w in g.weights)
        td = heuristic_decomposition(g.interaction)
        v, w = optval_tw(g, td, c)
        assert v == superadditive_cover(g, c)[0]
        assert structure_weight(w, g.n) == c and structure_value(g, w) == v
    for _ in range(20):
        g = random_tree_game(rng)
        c = tuple(rng.randint(0, w) for w in g.weights)
        td = heuristic_decomposition(g.interaction)
        assert td.width <= 1
        assert optval_tw(g, td, c)[0] == optval_tree(g, c)[0]


def test_arbval_examples():
    g = triangle_game()
    o = Outcome(structure=((1, 1, 0),), imputation=((Fraction(1), Fraction(0), Fraction(0)),))
    assert arbval_tw(g, CONSERVATIVE, o, frozenset({1, 2})) == superadditive_cover(g, (0, 1, 1))[0]
    assert arbval_tw(g, REFINED, o, frozenset({1, 2})) == 1
    assert arbval_tw(g, REFINED, o, frozenset({2})) == 0


def test_arbval_agreement_random():
    rng = random.Random(83)
    for trial in range(50):
        g = random_graph_game(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        rule = RULES[trial % 4]
        b, _ = brute_arbval(g, rule, o, S)
        v, dev, post = arbval_tw(g, rule, o, S, with_witness=True)
        assert v == b
        assert deviation_total(g, o, S, dev, rule, post) == v


def test_arbval_accepts_full_graph_decomposition():
    g = triangle_game()
    o = Outcome(structure=((1, 1, 0),), imputation=((Fraction(1), Fraction(0), Fraction(0)),))
    td = heuristic_decomposition(g.interaction)
    assert arbval_tw(g, REFINED, o, frozenset({1, 2}), t=td) == 1
    restricted = restrict_decomposition(td, {1, 2})
    assert validate_decomposition(g.interaction, restricted, vertices={1, 2}) == []


def test_checkcore_examples(g1, o1):
    one_bag = TreeDecomposition(bags=(frozenset({0, 1}),), edges=(), root=0)
    assert checkcore_tw(g1, CONSERVATIVE, o1, one_bag) is None
    g = triangle_game()
    o = Outcome(structure=((1, 1, 0),), imputation=((Fraction(1), Fraction(0), Fraction(0)),))
    td = heuristic_decomposition(g.interaction)
    violation = checkcore_tw(g, REFINED, o, td)
    assert violation is not None
    assert violation.excess == 1
    assert frozenset({1, 2}) <= violation.agents


def test_checkcore_single_agent():
    cf = make_charfun(1, 1, [((0,), (1,), Fraction(3))])
    g = GameDef(n=1, weights=(1,), charfun=cf, interaction=InteractionGraph.from_pairs(1, []))
    o = Outcome(structure=((1,),), imputation=((Fraction(3),),))
    t = heuristic_decomposition(g.interaction)
    assert checkcore_tw(g, CONSERVATIVE, o, t) is None


def test_checkcore_agreement_random():
    rng = random.Random(89)
    for trial in range(40):
        g = random_graph_game(rng, nmax=4)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        td = heuristic_decomposition(g.interaction)
        mv, _ = max_excess_tw(g, rule, o, td)
        bv, _ = brute_max_excess(g, rule, o)
        assert mv == bv
        assert (checkcore_tw(g, rule, o, td) is None) == (
            brute_checkcore(g, rule, o) is None
        )


def test_checkcore_matches_tree_on_forests():
    rng = random.Random(97)
    for trial in range(25):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        td = heuristic_decomposition(g.interaction)
        assert max_excess_tw(g, rule, o, td)[0] == max_excess_tree(g, rule, o)[0]


def test_disconnected_components_add_up():
    """Two isolated underpaid agents: the worst set is their union and the
    excesses add, in every lane."""
    cf = make_charfun(
        2, 2, [((0,), (1,), Fraction(3)), ((1,), (1,), Fraction(5))]
    )
    g = GameDef(n=2, weights=(1, 1), charfun=cf,
                interaction=InteractionGraph.from_pairs(2, []))
    o = Outcome(structure=((1, 0), (0, 1)),
                imputation=((Fraction(3), Fraction(0)), (Fraction(0), Fraction(5))))
    # underpay both by reassigning nothing: weights idle instead
    lazy = Outcome(structure=(), imputation=())
    bv, bs = brute_max_excess(g, CONSERVATIVE, lazy)
    assert bv == 8 and bs == frozenset({0, 1})
    tv, ts = max_excess_tree(g, CONSERVATIVE, lazy)
    assert tv == 8 and ts == frozenset({0, 1})
    td = heuristic_decomposition(g.interaction)
    wv, ws = max_excess_tw(g, CONSERVATIVE, lazy, td)
    assert wv == 8 and ws == frozenset({0, 1})
    # the fair outcome is stable in all three lanes
    assert brute_checkcore(g, CONSERVATIVE, o) is None
    assert max_excess_tree(g, CONSERVATIVE, o)[0] == 0
    assert max_excess_tw(g, CONSERVATIVE, o, td)[0] == 0


def test_is_stable_tw_experimental():
    rng = random.Random(101)
    stable = none = 0
    for trial in range(12):
        g = random_graph_game(rng, nmax=4)
        cs = random_structure(rng, g)
        rule = RULES[trial % 4]
        td = heuristic_decomposition(g.interaction)
        imp = is_stable_tw(g, rule, cs, td)
        if imp is None:
            none += 1
        else:
            stable += 1
            o = Outcome(structure=cs, imputation=imp)
            assert validate_outcome(o, g) == []
            assert brute_checkcore(g, rule, o) is None
    # random structures are rarely stable; optimal ones reach the stable
    # branch, where tree, treewidth and oracle must agree
    for make in (random_graph_game, random_tree_game):
        for _ in range(6):
            g = make(rng, nmax=4, wmax=2)
            td = heuristic_decomposition(g.interaction)
            _, cs = optval_tw(g, td, g.weights)
            for rule in RULES:
                answers = [is_stable_tw(g, rule, cs, td), brute_is_stable(g, rule, cs)]
                if make is random_tree_game:
                    answers.append(is_stable_tree(g, rule, cs))
                assert len({imp is None for imp in answers}) == 1
                if answers[0] is None:
                    none += 1
                    continue
                stable += 1
                for imp in answers:
                    o = Outcome(structure=cs, imputation=imp)
                    assert brute_checkcore(g, rule, o) is None
    assert stable > 0 and none > 0


def test_is_stable_tw_round_budget(g1):
    one_bag = TreeDecomposition(bags=(frozenset({0, 1}),), edges=(), root=0)
    with pytest.raises(BudgetExceededError):
        is_stable_tw(g1, CONSERVATIVE, ((1, 1), (1, 0)), one_bag, max_rounds=1)
