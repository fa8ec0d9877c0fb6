import random
import sys
from fractions import Fraction
from itertools import product

import pytest

import ocf.covers
from ocf.arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    LocalArbitrationRule,
    deviation_total,
    withdrawal_options,
)
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
    EnumerationBudget,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    brute_max_excess,
    superadditive_cover,
)
from ocf.stability import StabilitySystem
from ocf.tree import arbval_local, arbval_tree, is_stable_tree, max_excess_tree, optval_tree
from ocf.treewidth import (
    AlphaTable,
    KeepTable,
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
from conftest import fan3_game, random_graph_game, random_outcome, random_structure, random_tree_game

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


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return right + down


def test_heuristic_always_valid():
    """Min-fill builds its decomposition without checking it, so this checks
    it: random graphs on up to 14 vertices, disconnected ones among them,
    and the shapes the benchmark runs min-fill on (cycles, cycles with two
    crossing chords, 2 x k and 3 x k grids)."""
    rng = random.Random(71)
    graphs = []
    for _ in range(80):
        n = rng.randint(1, 14)
        p = rng.choice((0.1, 0.25, 0.4, 0.7))
        graphs.append((n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]))
    for n in (3, 5, 12, 14, 18, 30):
        graphs.append((n, _cycle_edges(n)))
        graphs.append((n, _cycle_edges(n) + [(0, n // 2), (n // 4, (3 * n) // 4)]))
    for k in (1, 2, 4, 6, 10):
        graphs.append((2 * k, _grid_edges(2, k)))
        graphs.append((3 * k, _grid_edges(3, k)))
    # a cycle, a grid and two isolated vertices side by side
    graphs.append((13, _cycle_edges(5) + [(5 + a, 5 + b) for a, b in _grid_edges(2, 3)]))
    graphs.append((14, []))
    connected = set()
    for n, edges in graphs:
        graph = InteractionGraph.from_pairs(n, edges)
        t = heuristic_decomposition(graph)
        assert validate_decomposition(graph, t) == [], (n, edges)
        connected.add(len(graph.components()) == 1)
    assert connected == {True, False}


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
        assert optval_tw(g, None, c)[0] == v
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
    """Max excess matches the oracle on graphs with cycles, and the reported
    set, never empty, achieves it.  Each game is checked again at a core
    imputation of its optimal structure, where the max is exactly 0: the
    grand coalition N keeping its structure earns what it is paid, so its
    excess is never negative, under every rule."""
    rng = random.Random(89)
    zero = 0
    for trial in range(40):
        g = random_graph_game(rng, nmax=4)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        N = frozenset(range(g.n))
        for any_rule in RULES:
            assert brute_arbval(g, any_rule, o, N)[0] - o.payoff_to_set(N) >= 0
        td = heuristic_decomposition(g.interaction)
        cs = optval_tw(g, td, g.weights)[1]
        imp = is_stable_tw(g, rule, cs, td)
        for oo in [o] + ([] if imp is None else [Outcome(structure=cs, imputation=imp)]):
            mv, ms = max_excess_tw(g, rule, oo, td)
            bv, _ = brute_max_excess(g, rule, oo)
            assert mv == bv and ms
            assert brute_arbval(g, rule, oo, ms)[0] - oo.payoff_to_set(ms) == mv
            auto_v, auto_s = max_excess_tw(g, rule, oo)
            assert auto_v == mv and auto_s
            cc = checkcore_tw(g, rule, oo, td)
            assert (cc is None) == (brute_checkcore(g, rule, oo) is None)
            auto = checkcore_tw(g, rule, oo)
            assert (auto is None) == (cc is None)
            assert auto is None or auto.excess == cc.excess
            if cc is not None:
                assert cc.agents and cc.deviation is not None and cc.post is not None
                total = deviation_total(g, oo, cc.agents, cc.deviation, rule, cc.post)
                assert total - oo.payoff_to_set(cc.agents) == cc.excess == mv
            zero += mv == 0
    assert zero >= 35


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
                answers = [is_stable_tw(g, rule, cs, td), brute_is_stable(g, rule, cs),
                           is_stable_tw(g, rule, cs)]
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


def test_is_stable_tw_round_budget():
    """The fan game's first candidate is cut by the pair {0, 1}, so one
    round runs out and two answer."""
    g, cs = fan3_game()
    one_bag = TreeDecomposition(bags=(frozenset({0, 1, 2}),), edges=(), root=0)
    with pytest.raises(BudgetExceededError):
        is_stable_tw(g, CONSERVATIVE, cs, one_bag, max_rounds=1)
    imp = is_stable_tw(g, CONSERVATIVE, cs, one_bag, max_rounds=2)
    assert imp is not None
    assert brute_checkcore(g, CONSERVATIVE, Outcome(structure=cs, imputation=imp)) is None


class _ThirteenthRefined(LocalArbitrationRule):
    """Refined payments times 20/13: a denominator no game or outcome has, on
    payments large enough that keeping a coalition is often the best move."""

    name = "refined-thirteenth"

    def coalition_payoff(self, cf, c, d, xc, deviators):
        return REFINED.coalition_payoff(cf, c, d, xc, deviators) * Fraction(20, 13)


def _over_3_7_11(rng: random.Random, g: GameDef) -> GameDef:
    """The same game shape with every value over 3, 7 or 11."""
    entries = [
        (sup, contrib, Fraction(rng.randint(1, 40), rng.choice((3, 7, 11))))
        for sup, table in sorted(g.charfun.entries.items())
        for contrib in sorted(table)
    ]
    cf = make_charfun(g.n, 2, entries)
    return GameDef(n=g.n, weights=g.weights, charfun=cf, interaction=g.interaction)


def _outcome_over_5_17(rng: random.Random, g: GameDef) -> Outcome:
    """Random pairwise outcome whose pair splits add denominators 5 or 17."""
    cs = random_structure(rng, g)
    imp = []
    for c in cs:
        v = g.charfun.value(c)
        x = [Fraction(0)] * g.n
        sup = [i for i, w in enumerate(c) if w]
        if sup:
            q = rng.choice((5, 17))
            x[sup[0]] = v * Fraction(rng.randint(0, q), q)
            x[sup[-1]] += v - x[sup[0]]
        imp.append(tuple(x))
    return Outcome(structure=cs, imputation=tuple(imp))


def _shares_equal_coalitions(cs) -> bool:
    return len({id(c) for c in cs}) == len(set(cs))


def _check_keep_table(g, o, rule, table):
    """Every ``value(y)`` of a keep or alpha table is the best total payment
    over the ways to keep y units in its coalitions, by brute force on
    ``Fraction``s, and ``keeps(y)`` is one of them; its rows hold ``int``s."""
    i, S = table.dev, frozenset((table.dev,))
    assert all(v is None or type(v) is int for v in table.row)
    pays = [
        [
            rule.coalition_payoff(g.charfun, o.structure[j], d, o.imputation[j], S)
            for d in withdrawal_options(g, o.structure[j], S)
        ]
        for j in table.indices
    ]
    best = {}
    for keep in product(*[range(o.structure[j][i] + 1) for j in table.indices]):
        # withdrawal_options runs from nothing withdrawn to everything
        paid = sum((row[len(row) - 1 - k] for row, k in zip(pays, keep)), start=Fraction(0))
        y = sum(keep)
        if y not in best or paid > best[y]:
            best[y] = paid
    for y in range(table.cap + 2):
        v = table.value(y)
        assert v == best.get(y) and (v is None or type(v) is Fraction)
        if v is not None:
            kept = table.keeps(y)
            assert sum(kept.values()) == y
            rows = dict(zip(table.indices, pays))
            assert sum((rows[j][len(rows[j]) - 1 - k] for j, k in kept.items()), start=Fraction(0)) == v


def test_bag_dp_scaled_denominators():
    """The bag DPs scale by one common denominator per call: answers stay
    exact ``Fraction``s equal to the oracle's, whatever the rule pays.  So
    do ``arbval_local``, which scales its payments and its cover together,
    and keep and alpha tables built on their own, each at its own scale."""
    rng = random.Random(107)
    thirteenth = _ThirteenthRefined()
    for trial in range(36):
        forest = trial % 2 == 1
        g = _over_3_7_11(rng, (random_tree_game if forest else random_graph_game)(rng, nmax=4))
        td = forest_decomposition(g.interaction) if forest else heuristic_decomposition(g.interaction)
        c = tuple(rng.randint(0, w) for w in g.weights)
        v, cs = optval_tw(g, td, c)
        assert type(v) is Fraction and v == superadditive_cover(g, c)[0]
        assert structure_value(g, cs) == v and structure_weight(cs, g.n) == c
        assert _shares_equal_coalitions(cs)
        if forest:
            assert optval_tree(g, c) == (v, cs)
        o = _outcome_over_5_17(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        for rule in (RULES[trial // 2 % 4], thirteenth):
            want = brute_arbval(g, rule, o, S)[0]
            results = [arbval_tw(g, rule, o, S, with_witness=True)]
            if forest:
                results.append(arbval_tree(g, rule, o, S, with_witness=True))
            results.append(arbval_local(g, rule, o, S, with_witness=True))
            for value, dev, post in results:
                assert type(value) is Fraction and value == want
                assert deviation_total(g, o, S, dev, rule, post) == value
                assert _shares_equal_coalitions(post)
            i = rng.randrange(g.n)
            nbrs = g.interaction.neighbors(i)
            for table in [KeepTable(g, o, rule, i, j) for j in nbrs] + [AlphaTable(g, o, rule, i, nbrs)]:
                _check_keep_table(g, o, rule, table)
            want = brute_max_excess(g, rule, o)[0]
            results = [max_excess_tw(g, rule, o, td)]
            if forest:
                results.append(max_excess_tree(g, rule, o))
            for excess, members in results:
                assert type(excess) is Fraction and excess == want
                assert brute_arbval(g, rule, o, members)[0] - o.payoff_to_set(members) == excess


class _SolveReached(Exception):
    pass


def _no_solve(system):
    raise _SolveReached(system.cuts)


def test_brute_is_stable_row_budget(monkeypatch):
    """A 4-agent weight-3 clique whose clamped optimistic system has 519
    stability rows stops at the default budget before its system is solved; the
    bound 2^(n + max_agents - 2) admits it from max_agents=8 on."""
    rng = random.Random(103)
    for _ in range(4):
        g = random_graph_game(rng, nmax=4)
    assert g.n == 4 and g.weights == (3, 3, 3, 3)
    _, cs = optval_tw(g, heuristic_decomposition(g.interaction), g.weights)
    monkeypatch.setattr(StabilitySystem, "solve", _no_solve)
    with pytest.raises(BudgetExceededError, match="exceeds 256 rows"):
        brute_is_stable(g, OPTIMISTIC_CLAMPED, cs)
    with pytest.raises(BudgetExceededError, match="exceeds 512 rows"):
        brute_is_stable(g, OPTIMISTIC_CLAMPED, cs, EnumerationBudget(max_agents=7))
    with pytest.raises(_SolveReached, match="^519$"):
        brute_is_stable(g, OPTIMISTIC_CLAMPED, cs, EnumerationBudget(max_agents=8))


def _pair_game(n: int, edges: list[tuple[int, int]], weight: int) -> GameDef:
    entries = [((i,), (1,), 1) for i in range(n)] + [(sorted(e), (1, 1), 3) for e in edges]
    return GameDef(
        n=n,
        weights=(weight,) * n,
        charfun=make_charfun(n, 2, entries),
        interaction=InteractionGraph.from_pairs(n, edges),
    )


def test_brute_is_stable_row_budget_admits_wide_systems(monkeypatch):
    """Systems that are large only because the game has many agents reach
    the solve: an 8-agent conservative path under a budget of 8 agents, and a
    6-cycle with one pair coalition per edge under the refined rule (3^6
    stability rows) at the default budget."""
    monkeypatch.setattr(StabilitySystem, "solve", _no_solve)
    path = _pair_game(8, [(i, i + 1) for i in range(7)], 1)
    cs = tuple(tuple(int(k in (i, i + 1)) for k in range(8)) for i in range(0, 8, 2))
    with pytest.raises(_SolveReached, match="^255$"):
        brute_is_stable(path, CONSERVATIVE, cs, EnumerationBudget(max_agents=8))
    cycle = _pair_game(6, [(i, (i + 1) % 6) for i in range(6)], 2)
    cs = tuple(tuple(int(k in (i, (i + 1) % 6)) for k in range(6)) for i in range(6))
    with pytest.raises(_SolveReached, match="^729$"):
        brute_is_stable(cycle, REFINED, cs)


def test_solo_covers_are_built_once_per_game(monkeypatch):
    """Every lane reads the game's one solo cover per agent, built on first
    use: OptVal, CheckCore and Is-Stable on the bag lane, the oracle's
    Is-Stable and ``validate_outcome`` together build exactly n of them,
    one per agent over its whole weight.  Every module's binding of
    ``single_cover`` is counted, ``core``'s among them."""
    caps = []
    build = ocf.covers.single_cover

    def counted(atoms, cap):
        caps.append(cap)
        return build(atoms, cap)

    for name, module in list(sys.modules.items()):
        if name.startswith("ocf") and getattr(module, "single_cover", None) is build:
            monkeypatch.setattr(module, "single_cover", counted)
    rng = random.Random(16)
    g = random_tree_game(rng)
    _, cs = optval_tw(g, None, g.weights)
    o = random_outcome(rng, g)
    for rule in RULES:
        arbval_tw(g, rule, o, frozenset(range(g.n)))
        checkcore_tw(g, rule, o)
        assert (is_stable_tw(g, rule, cs) is None) == (brute_is_stable(g, rule, cs) is None)
    for mode in ("full-endowment", "unit"):
        validate_outcome(o, g, mode)
    assert caps == list(g.weights)


def test_boxes_die_with_the_solver_call(monkeypatch):
    """Every ``covers.Box`` a solver call makes, with its memo of sweeps,
    belongs to an object of that call: none outlives it.  Checked on OptVal,
    CheckCore and Is-Stable over a path game."""
    import gc
    import weakref

    made = []
    init = ocf.covers.Box.__init__

    def recorded(self, caps):
        init(self, caps)
        made.append(weakref.ref(self))

    monkeypatch.setattr(ocf.covers.Box, "__init__", recorded)
    g = _pair_game(6, [(i, i + 1) for i in range(5)], 2)
    _, cs = optval_tree(g, g.weights)
    o = random_outcome(random.Random(3), g)
    for rule in RULES:
        checkcore_tw(g, rule, o)
        is_stable_tw(g, rule, cs)
    gc.collect()
    assert made and all(ref() is None for ref in made)


def _non_decreasing(box, values: list, out: int) -> bool:
    """Every member level of a table over ``box``, a list in product order,
    is non-decreasing, None lowest, with the out pattern fixed: with ``out``
    1 coordinate 0 of each axis is an out state, which is no lower neighbour
    of the member levels."""
    assert len(values) == len(box.keys)
    table = dict(zip(box.keys, values))
    for r, v in table.items():
        for k, x in enumerate(r):
            below = table[r[:k] + (x - 1,) + r[k + 1 :]] if x > out else None
            if below is not None and (v is None or v < below):
                return False
    return True


def test_bag_engine_merges_into_monotone_tables(monkeypatch):
    """The bag engine keeps only the non-dominated entries of each merge's
    other operand, under the out-state rule, which keeps every value only
    while the table merged into is non-decreasing in each member level
    within each out pattern.  Every ``prev`` that ``_BagEngine._bag`` hands
    to ``merge`` is, under OptVal, ArbVal, CheckCore and Is-Stable on tree,
    cycle and clique games, and the witnesses re-check."""
    import ocf.treewidth as tw

    seen = {0: [], 1: []}  # per engine mode: with no out state, and with one
    kernel = tw.merge

    def watched(sweep, prev, moves, out, picks):
        frame = sys._getframe(1)
        if frame.f_code is tw._BagEngine._bag.__code__:
            o = frame.f_locals["o"]
            seen[o].append(_non_decreasing(sweep.__self__, prev, o))
        return kernel(sweep, prev, moves, out, picks)

    monkeypatch.setattr(tw, "merge", watched)
    rng = random.Random(103)
    for trial in range(16):
        g = (random_graph_game if trial % 2 else random_tree_game)(rng, nmax=5)
        rule = RULES[trial % 4]
        v, cs = optval_tw(g, None, g.weights)
        assert v == structure_value(g, cs) == superadditive_cover(g, g.weights)[0]
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        a, dev, post = arbval_tw(g, rule, o, S, with_witness=True)
        assert a == deviation_total(g, o, S, dev, rule, post) == brute_arbval(g, rule, o, S)[0]
        cc = checkcore_tw(g, rule, o)
        assert (cc is None) == (brute_checkcore(g, rule, o) is None)
        if cc is not None:
            total = deviation_total(g, o, cc.agents, cc.deviation, rule, cc.post)
            assert total - o.payoff_to_set(cc.agents) == cc.excess == brute_max_excess(g, rule, o)[0]
        imp = is_stable_tw(g, rule, cs)
        assert (imp is None) == (brute_is_stable(g, rule, cs) is None)
        if imp is not None:
            assert brute_checkcore(g, rule, Outcome(structure=cs, imputation=imp)) is None
    assert all(map(all, seen.values())) and all(seen.values())


def test_checkcore_builds_keep_tables_only_on_spanned_edges(monkeypatch):
    """Only an edge that an outcome coalition spans has units to keep, so
    CheckCore builds keep tables on those edges alone, one per direction.
    On a 6-cycle whose structure pairs (0, 1) and (2, 3) and leaves 4 and 5
    alone, that is 4 tables, not the 12 of every edge both ways; the
    violation (all six agents, excess 18 - 8) re-checks."""
    import ocf.treewidth as tw

    built = []
    init = tw.KeepTable.__init__

    def counted(self, g, o, rule, dev, other):
        built.append((dev, other))
        init(self, g, o, rule, dev, other)

    monkeypatch.setattr(tw.KeepTable, "__init__", counted)
    g = _pair_game(6, [(i, (i + 1) % 6) for i in range(6)], 2)
    cs = ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    h, z, u = Fraction(3, 2), Fraction(0), Fraction(1)
    imp = ((h, h, z, z, z, z), (z, z, h, h, z, z), (z, z, z, z, u, z), (z, z, z, z, z, u))
    o = Outcome(structure=cs, imputation=imp)
    for rule in (REFINED, OPTIMISTIC):
        built.clear()
        cc = checkcore_tw(g, rule, o)
        assert sorted(built) == [(0, 1), (1, 0), (2, 3), (3, 2)]
        assert cc is not None and cc.agents == frozenset(range(6)) and cc.excess == 10
        total = deviation_total(g, o, cc.agents, cc.deviation, rule, cc.post)
        assert total - o.payoff_to_set(cc.agents) == cc.excess
