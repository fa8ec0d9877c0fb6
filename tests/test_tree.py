import random
from fractions import Fraction

import pytest

from ocf.arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    SENSITIVE,
    deviation_total,
)
from ocf.core import (
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
    myerson_restrict,
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
from ocf.tree import (
    AlphaTable,
    KeepTable,
    UnsupportedGameError,
    UnsupportedOutcomeError,
    arbval_local,
    arbval_tree,
    checkcore_tree,
    is_stable_tree,
    max_excess_tree,
    optval_tree,
    rooted_forest,
)
from conftest import random_outcome, random_structure, random_tree_game

RULES = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)


def path3_game():
    cf = make_charfun(3, 2, [((0, 1), (1, 1), Fraction(1)), ((1, 2), (1, 1), Fraction(1))])
    return GameDef(
        n=3,
        weights=(1, 1, 1),
        charfun=cf,
        interaction=InteractionGraph.from_pairs(3, [(0, 1), (1, 2)]),
    )


def test_optval_examples(g1):
    assert optval_tree(g1, (2, 1))[0] == 5
    assert optval_tree(g1, (0, 0)) == (0, ())
    g3 = path3_game()
    assert optval_tree(g3, (1, 1, 1))[0] == 1  # the middle agent serves one edge


def test_optval_requires_tree_shape(g1):
    cf = make_charfun(2, 3, [])
    g = GameDef(n=2, weights=(1, 1), charfun=cf, interaction=g1.interaction)
    with pytest.raises(UnsupportedGameError):
        optval_tree(g, (1, 1))
    with pytest.raises(UnsupportedGameError):
        optval_tree(GameDef(n=2, weights=(1, 1), charfun=make_charfun(2, 2, [])), (1, 1))
    tri = InteractionGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(UnsupportedGameError):
        optval_tree(
            GameDef(n=3, weights=(1, 1, 1), charfun=make_charfun(3, 2, []), interaction=tri),
            (1, 1, 1),
        )


def test_optval_witness_sound():
    rng = random.Random(41)
    for _ in range(40):
        g = random_tree_game(rng)
        c = tuple(rng.randint(0, w) for w in g.weights)
        v, w = optval_tree(g, c)
        assert structure_weight(w, g.n) == c
        assert structure_value(g, w) == v


def test_optval_root_invariance():
    """The DP value cannot depend on which vertex anchors each component."""
    rng = random.Random(43)
    for _ in range(20):
        g = random_tree_game(rng)
        c = tuple(rng.randint(0, w) for w in g.weights)
        base, _ = optval_tree(g, c)
        # re-rooting by relabeling agents: value must follow the relabeling
        perm = list(range(g.n))
        rng.shuffle(perm)
        inv = {p: i for i, p in enumerate(perm)}
        entries = []
        for sup, table in g.charfun.entries.items():
            new_sup = tuple(sorted(perm[i] for i in sup))
            order = sorted(range(len(sup)), key=lambda k: perm[sup[k]])
            for contrib, value in table.items():
                entries.append((new_sup, tuple(contrib[k] for k in order), value))
        g2 = GameDef(
            n=g.n,
            weights=tuple(g.weights[inv[i]] for i in range(g.n)),
            charfun=make_charfun(g.n, 2, entries),
            interaction=InteractionGraph.from_pairs(
                g.n, [(perm[a], perm[b]) for a, b in g.interaction.simple_edges()]
            ),
        )
        c2 = tuple(c[inv[i]] for i in range(g.n))
        assert optval_tree(g2, c2)[0] == base


def test_optval_monotone_in_resources():
    rng = random.Random(47)
    for _ in range(20):
        g = random_tree_game(rng, nmax=4)
        c = tuple(rng.randint(0, w) for w in g.weights)
        smaller = tuple(max(0, x - rng.randint(0, 1)) for x in c)
        assert optval_tree(g, smaller)[0] <= optval_tree(g, c)[0]


def test_arbval_examples(g1, o1):
    S0 = frozenset({0})
    assert arbval_local(g1, CONSERVATIVE, o1, S0) == superadditive_cover(g1, (2, 0))[0]
    assert arbval_local(g1, REFINED, o1, S0) == 3
    assert arbval_local(g1, OPTIMISTIC, o1, S0) == 3
    assert arbval_tree(g1, REFINED, o1, S0) == 3
    # the whole set deviating conservatively is just the grand cover
    vN = arbval_tree(g1, CONSERVATIVE, o1, frozenset({0, 1}))
    assert vN == superadditive_cover(g1, (2, 1))[0]


def test_arbval_path3_zero_for_worthless_agent():
    g = path3_game()
    o = Outcome(
        structure=((1, 1, 0),),
        imputation=((Fraction(0), Fraction(1), Fraction(0)),),
    )
    assert arbval_tree(g, CONSERVATIVE, o, frozenset({0})) == 0


def test_arbval_local_cap():
    rng = random.Random(53)
    g = random_tree_game(rng, nmax=5)
    o = random_outcome(rng, g)
    with pytest.raises(BudgetExceededError):
        arbval_local(g, CONSERVATIVE, o, frozenset(range(g.n)), max_set_size=g.n - 1)


def test_arbval_rejects_sensitive(g1, o1):
    from ocf.arbitration import UnsupportedRuleError

    with pytest.raises(UnsupportedRuleError):
        arbval_local(g1, SENSITIVE, o1, frozenset({0}))
    with pytest.raises(UnsupportedRuleError):
        arbval_tree(g1, SENSITIVE, o1, frozenset({0}))


def test_arbval_rejects_wide_outcomes():
    # a 3-contributor coalition is structurally legal (worth 0) but outside
    # the pairwise shape the tree machinery covers
    cf = make_charfun(3, 2, [((0, 1), (1, 1), Fraction(1))])
    g = GameDef(
        n=3,
        weights=(1, 1, 1),
        charfun=cf,
        interaction=InteractionGraph.from_pairs(3, [(0, 1), (1, 2)]),
    )
    o = Outcome(
        structure=((1, 1, 1),),
        imputation=((Fraction(0), Fraction(0), Fraction(0)),),
    )
    with pytest.raises(UnsupportedOutcomeError):
        arbval_tree(g, REFINED, o, frozenset({0}))
    # a pair coalition across a non-edge is rejected the same way
    o2 = Outcome(
        structure=((1, 0, 1),),
        imputation=((Fraction(0), Fraction(0), Fraction(0)),),
    )
    with pytest.raises(UnsupportedOutcomeError):
        arbval_tree(g, REFINED, o2, frozenset({0}))


def test_arbval_agreement_random():
    rng = random.Random(59)
    for trial in range(60):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        rule = RULES[trial % 4]
        b, _ = brute_arbval(g, rule, o, S)
        assert arbval_local(g, rule, o, S) == b
        v, dev, post = arbval_tree(g, rule, o, S, with_witness=True)
        assert v == b
        assert deviation_total(g, o, S, dev, rule, post) == v


def test_checkcore_examples(g1, o1):
    assert checkcore_tree(g1, CONSERVATIVE, o1) is None
    skew = Outcome(
        structure=((1, 1), (1, 0)),
        imputation=((Fraction(4), Fraction(0)), (Fraction(1), Fraction(0))),
    )
    violation = checkcore_tree(g1, CONSERVATIVE, skew)
    assert violation is not None
    assert violation.agents == frozenset({1}) and violation.excess == 2


def test_checkcore_single_agent_paid_cover():
    cf = make_charfun(1, 1, [((0,), (2,), Fraction(7)), ((0,), (1,), Fraction(2))])
    g = GameDef(n=1, weights=(2,), charfun=cf,
                interaction=InteractionGraph.from_pairs(1, []))
    o = Outcome(structure=((2,),), imputation=((Fraction(7),),))
    assert checkcore_tree(g, CONSERVATIVE, o) is None


def _split_forest(rng: random.Random, g: GameDef) -> GameDef:
    """Drop at least one edge of a tree game and Myerson-restrict its values,
    leaving a forest of several components."""
    edges = g.interaction.simple_edges()
    drop = set(rng.sample(range(len(edges)), rng.randint(1, len(edges))))
    graph = InteractionGraph.from_pairs(g.n, [e for k, e in enumerate(edges) if k not in drop])
    return GameDef(n=g.n, weights=g.weights, charfun=myerson_restrict(g.charfun, graph),
                   interaction=graph)


def _core_cases():
    rng = random.Random(61)
    for _ in range(60):
        g = random_tree_game(rng, nmax=4)
        yield g, random_outcome(rng, g)
    rng = random.Random(62)
    for _ in range(40):
        g = _split_forest(rng, random_tree_game(rng, nmax=5))
        yield g, random_outcome(rng, g)


def test_checkcore_agreement_random():
    """Max excess matches the oracle on trees and on multi-component forests,
    and the reported set achieves it."""
    components = []
    for trial, (g, o) in enumerate(_core_cases()):
        rule = RULES[trial % 4]
        bv, _ = brute_max_excess(g, rule, o)
        tv, ts = max_excess_tree(g, rule, o)
        assert tv == bv
        assert brute_arbval(g, rule, o, ts)[0] - o.payoff_to_set(ts) == tv
        cc = checkcore_tree(g, rule, o)
        assert (cc is None) == (brute_checkcore(g, rule, o) is None)
        components.append(len(g.interaction.components()))
    assert sum(c > 1 for c in components) >= 40
    assert max(components) >= 3


def test_dp_tables_typed_sentinel():
    """Unreachable states are None, never a float, in the keep/alpha tables."""
    rng = random.Random(71)
    for trial in range(20):
        g = random_tree_game(rng)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        i = rng.randrange(g.n)
        others = g.interaction.neighbors(i)
        tables = [KeepTable(g, o, rule, i, j) for j in others]
        tables.append(AlphaTable(g, o, rule, i, others))
        for table in tables:
            assert table.value(table.cap + 1) is None
            assert all(v is None or type(v) is Fraction for v in table.values)


def test_is_stable_examples(g1):
    imp = is_stable_tree(g1, CONSERVATIVE, ((1, 1), (1, 0)))
    assert imp is not None
    o = Outcome(structure=((1, 1), (1, 0)), imputation=imp)
    assert validate_outcome(o, g1) == []
    assert brute_checkcore(g1, CONSERVATIVE, o) is None
    assert is_stable_tree(g1, CONSERVATIVE, ((2, 0),)) is None


def test_is_stable_single_agent():
    cf = make_charfun(1, 1, [((0,), (2,), Fraction(7))])
    g = GameDef(n=1, weights=(2,), charfun=cf,
                interaction=InteractionGraph.from_pairs(1, []))
    imp = is_stable_tree(g, CONSERVATIVE, ((2,),))
    assert imp == ((Fraction(7),),)


def test_is_stable_agrees_with_brute():
    rng = random.Random(67)
    for trial in range(24):
        g = random_tree_game(rng, nmax=3)
        cs = random_structure(rng, g)
        rule = RULES[trial % 4]
        t = is_stable_tree(g, rule, cs)
        b = brute_is_stable(g, rule, cs)
        assert (t is None) == (b is None)
        if t is not None:
            o = Outcome(structure=cs, imputation=t)
            assert validate_outcome(o, g) == []
            assert brute_checkcore(g, rule, o) is None


def test_is_stable_round_budget(g1):
    """Running out of cutting-plane rounds is a budget error, not a crash."""
    with pytest.raises(BudgetExceededError):
        is_stable_tree(g1, CONSERVATIVE, ((1, 1), (1, 0)), max_rounds=1)


def test_rooted_forest_deterministic():
    graph = InteractionGraph.from_pairs(5, [(3, 1), (1, 0), (2, 4)])
    trees = rooted_forest(graph)
    assert [t.root for t in trees] == [0, 2]
    assert trees[0].children[0] == (1,)
    assert trees[0].children[1] == (3,)
    assert trees[0].parent == {0: None, 1: 0, 3: 1}
    assert trees[1].parent == {2: None, 4: 2}
    assert rooted_forest(graph, {1, 3, 4})[0].parent == {1: None, 3: 1}
