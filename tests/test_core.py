import random
from fractions import Fraction

import pytest

from ocf.core import (
    ContractViolation,
    GameDef,
    InteractionGraph,
    Outcome,
    evaluate,
    make_charfun,
    mixed_indices,
    myerson_restrict,
    payoff_to_set,
    reduce_structure,
    support,
    validate_outcome,
)
from conftest import random_k3_game, random_k_outcome, random_outcome, random_tree_game


def test_eval_examples(g1):
    assert evaluate(g1.charfun, (0, 0)) == 0
    assert evaluate(g1.charfun, (1, 1)) == 4
    assert evaluate(g1.charfun, (2, 1)) == 0  # unlisted: total function defaults to 0


def test_eval_dimension_mismatch(g1):
    with pytest.raises(ContractViolation):
        evaluate(g1.charfun, (1, 1, 0))


def test_eval_is_pure(g1):
    for c in [(0, 0), (1, 1), (2, 0), (2, 1)]:
        assert evaluate(g1.charfun, c) == evaluate(g1.charfun, c)


def test_charfun_rejects_oversized_support():
    with pytest.raises(ContractViolation):
        make_charfun(3, 1, [((0, 1), (1, 1), Fraction(1))])


def test_charfun_rejects_negative_value():
    with pytest.raises(ContractViolation):
        make_charfun(2, 2, [((0,), (1,), Fraction(-1))])


def test_payoff_to_set_examples(g1, o1):
    assert payoff_to_set(o1, set()) == 0
    assert payoff_to_set(o1, {0}) == 3
    assert payoff_to_set(o1, {0, 1}) == 5


def test_reduce_structure_examples(o1):
    cs = o1.structure
    assert reduce_structure(cs, {0}) == ((1, 0),)
    assert reduce_structure(cs, {0, 1}) == cs
    assert reduce_structure(cs, set()) == ()


def test_reduce_structure_partition():
    rng = random.Random(1)
    for _ in range(30):
        g = random_tree_game(rng)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        inside = reduce_structure(o.structure, S)
        outside = tuple(c for c in o.structure if not support(c) <= S)
        assert sorted(inside + outside) == sorted(o.structure)


def test_mixed_indices_are_the_shared_coalitions():
    """A coalition is mixed for S when its support meets S and leaves it."""
    rng = random.Random(3)
    for _ in range(60):
        g = random_k3_game(rng)
        o = random_k_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        want = [j for j, sup in enumerate(o.supports) if sup & S and not sup <= S]
        assert mixed_indices(o.structure, S) == want


def _random_graph(rng: random.Random) -> InteractionGraph:
    """Up to 7 vertices, some isolated, with self-loops and repeated pairs."""
    n = rng.randint(1, 7)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 2))]
    return InteractionGraph.from_pairs(n, pairs)


def _linked(g: InteractionGraph, agents, drop=None) -> set[frozenset[int]]:
    """Pairs of ``agents`` joined by a path inside them, by closing the
    edge relation under composition until nothing changes."""
    pairs = {e for e in g.edges if len(e) == 2 and e <= agents and e != drop}
    while True:
        more = {a ^ b for a in pairs for b in pairs if len(a & b) == 1} - pairs
        if not more:
            return pairs
        pairs |= more


def test_graph_predicates_match_their_definitions():
    """Connected subsets, components and forests against their definitions:
    a subset is connected when every pair in it is joined inside it; a
    component is a class of that relation over all vertices; a forest has
    no edge whose ends stay joined without it."""
    rng = random.Random(211)
    for _ in range(300):
        g = _random_graph(rng)
        everyone = frozenset(range(g.n))
        subsets = [frozenset(), frozenset({rng.randrange(g.n)}), everyone]
        subsets += [frozenset(v for v in range(g.n) if rng.random() < 0.5) for _ in range(4)]
        for agents in subsets:
            linked = _linked(g, agents)
            want = all(frozenset((a, b)) in linked for a in agents for b in agents if a < b)
            assert g.is_connected_subset(agents) == want, (g, agents)
        linked = _linked(g, everyone)
        classes = []
        for v in range(g.n):
            if not any(v in c for c in classes):
                classes.append([u for u in range(g.n) if u == v or frozenset((u, v)) in linked])
        assert g.components() == classes
        cycle = any(e in _linked(g, everyone, drop=e) for e in g.edges if len(e) == 2)
        assert g.is_forest() == (not cycle), g


def test_myerson_examples(g1):
    same = myerson_restrict(g1.charfun, g1.interaction)
    assert same.entries == g1.charfun.entries
    bare = myerson_restrict(g1.charfun, InteractionGraph.from_pairs(2, []))
    assert (0, 1) not in bare.entries
    assert bare.entries[(0,)] == g1.charfun.entries[(0,)]
    assert bare.entries[(1,)] == g1.charfun.entries[(1,)]
    empty = make_charfun(2, 2, [])
    assert myerson_restrict(empty, g1.interaction).entries == {}


def test_myerson_idempotent():
    rng = random.Random(2)
    for _ in range(20):
        g = random_tree_game(rng)
        graph = InteractionGraph.from_pairs(g.n, g.interaction.simple_edges()[:1])
        once = myerson_restrict(g.charfun, graph)
        twice = myerson_restrict(once, graph)
        assert once.entries == twice.entries


def test_gamedef_rejects_disconnected_entries():
    cf = make_charfun(3, 2, [((0, 2), (1, 1), Fraction(1))])
    with pytest.raises(ContractViolation):
        GameDef(n=3, weights=(1, 1, 1), charfun=cf,
                interaction=InteractionGraph.from_pairs(3, [(0, 1), (1, 2)]))


def test_validate_outcome_examples(g1, o1):
    assert validate_outcome(o1, g1) == []
    bad_eff = Outcome(
        structure=o1.structure,
        imputation=((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    report = validate_outcome(bad_eff, g1)
    assert any("efficiency" in p and "coalition 0" in p for p in report)
    bad_side = Outcome(
        structure=o1.structure,
        imputation=((Fraction(2), Fraction(2)), (Fraction(0), Fraction(1))),
    )
    report = validate_outcome(bad_side, g1)
    assert any("no-side-payments" in p for p in report)


def test_validate_outcome_reports_a_short_payoff_vector(g1):
    """A payoff vector shorter than n is one violation in the report, not an
    ``IndexError`` from the individual-rationality totals."""
    short = Outcome(structure=((1, 1),), imputation=((Fraction(2),),))
    for mode in ("full-endowment", "unit"):
        assert validate_outcome(short, g1, ir_mode=mode) == ["payoff vector 0: length 1 != n=2"]


def test_validate_outcome_ir_modes(g1):
    # agent 0 underpaid: gets 2 total but can make 3 alone with both units
    o = Outcome(
        structure=((1, 1), (1, 0)),
        imputation=((Fraction(1), Fraction(3)), (Fraction(1), Fraction(0))),
    )
    full = validate_outcome(o, g1, ir_mode="full-endowment")
    assert any("individual rationality: agent 0" in p for p in full)
    # with the single-unit baseline v*(e^0)=1 the payoff 2 is enough
    assert validate_outcome(o, g1, ir_mode="unit") == []


def test_payoff_to_set_of_everyone_equals_value():
    rng = random.Random(3)
    from ocf.core import structure_value

    for _ in range(30):
        g = random_tree_game(rng)
        o = random_outcome(rng, g)
        assert payoff_to_set(o, range(g.n)) == structure_value(g, o.structure)
