import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocf.arbitration import CONSERVATIVE, OPTIMISTIC, OPTIMISTIC_CLAMPED, REFINED, SENSITIVE
from ocf.core import (
    ContractViolation,
    GameDef,
    Outcome,
    make_charfun,
    structure_value,
    structure_weight,
    validate_outcome,
)
from ocf.oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationBudget,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    count_structures,
    brute_max_excess,
    enumerate_structures,
    iter_subsets,
    superadditive_cover,
)
from ocf.covers import CoverTable
from conftest import random_graph_game, random_outcome, random_tree_game

RULES5 = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED, SENSITIVE)


def _seeded_games(seed, count, **kw):
    """Tree and graph games in turn, from one seeded generator."""
    rng = random.Random(seed)
    for t in range(count):
        yield rng, (random_tree_game if t % 2 else random_graph_game)(rng, **kw)


def test_cover_examples(g1):
    v, w = superadditive_cover(g1, (2, 1))
    assert v == 5
    assert structure_weight(w, 2) == (2, 1)
    assert structure_value(g1, w) == 5
    assert sorted(w) in ([(0, 1), (2, 0)], [(0, 1), (1, 0), (1, 1)], [(1, 0), (1, 1)])
    assert superadditive_cover(g1, (0, 0)) == (0, ())
    assert superadditive_cover(g1, (1, 0))[0] == 1


def test_cover_budget_guard(g1):
    tight = EnumerationBudget(max_agents=1, max_weight=4, max_structures=100)
    with pytest.raises(BudgetExceededError):
        superadditive_cover(g1, (2, 1), tight)
    # explicit opt-out
    assert superadditive_cover(g1, (2, 1), budget=None)[0] == 5


def test_enumerate_examples(g1):
    got = list(enumerate_structures(g1, (1, 1)))
    assert len(got) == len(set(got)) == 5
    assert set(got) == {(), ((1, 0),), ((0, 1),), ((0, 1), (1, 0)), ((1, 1),)}
    assert list(enumerate_structures(g1, (0, 0))) == [()]


def test_enumerate_single_agent():
    cf = make_charfun(1, 1, [])
    g = GameDef(n=1, weights=(2,), charfun=cf)
    got = list(enumerate_structures(g, (2,)))
    assert set(got) == {(), ((1,),), ((2,),), ((1,), (1,))}
    assert count_structures(g, (2,)) == 4


def test_enumerate_canonical_order(g1):
    """Lexicographic multisets of lexicographically ordered atoms, the empty
    structure first: the order is fixed, not only the set."""
    assert list(enumerate_structures(g1, (2, 1))) == [
        (),
        ((0, 1),),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 0), (1, 0)),
        ((0, 1), (2, 0)),
        ((1, 0),),
        ((1, 0), (1, 0)),
        ((1, 0), (1, 1)),
        ((1, 1),),
        ((2, 0),),
        ((2, 1),),
    ]


def test_count_matches_enumeration():
    """The count table against the enumeration it budgets, below, at and
    above the exact count."""
    for rng, g in _seeded_games(17, 40, nmax=4):
        c = g.weights if rng.random() < 0.3 else tuple(rng.randint(0, w) for w in g.weights)
        if count_structures(g, c, cap=3000) > 3000:
            continue
        total = len(list(enumerate_structures(g, c, None)))
        for cap in (None, 0, 1, 2, 5, total - 1, total, total + 1):
            want = total if cap is None else min(total, cap + 1)
            assert count_structures(g, c, cap) == want, (c, cap)


def test_cover_table_scales_fractions():
    """Values with denominators 3, 7 and 11 come back as exact Fractions
    equal to the best enumerated structure, and the witness earns them."""
    for rng, g in _seeded_games(19, 12, nmax=4, wmax=2):
        entries = [
            (sup, contrib, Fraction(rng.randint(1, 40), rng.choice((3, 7, 11))))
            for sup, table in g.charfun.entries.items()
            for contrib in table
        ]
        g = GameDef(n=g.n, weights=g.weights, charfun=make_charfun(g.n, 2, entries), interaction=g.interaction)
        table = CoverTable(g.charfun.atoms(), g.weights)
        for _ in range(4):
            c = tuple(rng.randint(0, w) for w in g.weights)
            best = max(structure_value(g, cs) for cs in enumerate_structures(g, c, None))
            assert isinstance(table.value(c), Fraction) and table.value(c) == best
            assert structure_value(g, tuple(table.witness_atoms(c))) == best
            assert superadditive_cover(g, c, None)[0] == best


def _reference_structures(c):
    """The enumeration on plain tuples: each level takes the atoms from the
    last one taken on that still fit, in lexicographic order."""
    atoms = [v for v in product(*[range(w + 1) for w in c]) if any(v)]

    def rec(fits, rem, acc):
        yield tuple(acc)
        for k, a in enumerate(fits):
            rest = tuple(r - x for r, x in zip(rem, a))
            acc.append(a)
            yield from rec([b for b in fits[k:] if all(x <= r for x, r in zip(b, rest))], rest, acc)
            acc.pop()

    return rec(atoms, tuple(c), [])


def test_packed_enumeration_matches_the_tuple_reference():
    """``enumerate_structures`` packs each vector into one int; it yields
    the tuple reference's sequence: on seeded games up to the default
    budget's weight of 4 (three bits a field plus the guard), on weights
    5 to 9 without a budget (three and four bits), on all-zero caps and on
    one agent.  Stored and one-agent vectors come out as the game's own
    tuples."""
    cases = []
    rng = random.Random(41)
    while len(cases) < 24:
        g = (random_tree_game if len(cases) % 2 else random_graph_game)(rng, nmax=3, wmax=4)
        c = tuple(rng.randint(0, w) for w in g.weights)
        if 4 in c and count_structures(g, c, cap=5000) <= 5000:
            cases.append((g, c, DEFAULT_BUDGET))
    for c in [(9,), (9, 1), (8, 2), (7, 1, 1), (5, 2, 1), (6, 2)]:
        cases.append((GameDef(n=len(c), weights=c, charfun=make_charfun(len(c), 2, [])), c, None))
    for n in (1, 3):
        g = GameDef(n=n, weights=(2,) * n, charfun=make_charfun(n, 1, []))
        cases.append((g, (0,) * n, DEFAULT_BUDGET))
    one = GameDef(n=1, weights=(4,), charfun=make_charfun(1, 1, [((0,), (3,), Fraction(2))]))
    cases += [(one, (4,), DEFAULT_BUDGET), (one, (1,), DEFAULT_BUDGET)]
    for g, c, budget in cases:
        got = list(enumerate_structures(g, c, budget))
        assert got == list(_reference_structures(c)), c
        assert len(got) == count_structures(g, c)
        own = {v: id(v) for v in (*g.charfun.vectors.values(), *g._solo_vectors.values())}
        assert all(id(a) == own[a] for cs in got for a in cs if a in own)
    assert list(enumerate_structures(one, (0,))) == [()]


def test_structure_value_reads_the_stored_entries(g1):
    """``structure_value`` is the sum of ``value`` over the coalitions:
    repeats count each time, unlisted coalitions add 0, a coalition of the
    wrong length is refused, and an edited stored value is read as
    ``value`` reads it."""
    assert structure_value(g1, ()) == 0
    assert structure_value(g1, ((1, 1), (1, 1), (1, 0))) == 2 * g1.charfun.value((1, 1)) + g1.charfun.value((1, 0))
    assert structure_value(g1, ((0, 0), (2, 1))) == 0 == g1.charfun.value((2, 1))
    for bad in [((1, 1), (1, 0, 0)), ((1,),)]:
        with pytest.raises(ContractViolation, match="length"):
            structure_value(g1, bad)
    for rng, g in _seeded_games(43, 20, nmax=4):
        cs = random_outcome(rng, g).structure
        cs += tuple(rng.choice(cs) for _ in range(len(cs) // 2)) if cs else ()
        assert structure_value(g, cs) == sum((g.charfun.value(c) for c in cs), Fraction(0))
    cf = make_charfun(2, 2, [((0,), (1,), Fraction(1)), ((0, 1), (1, 1), Fraction(4))])
    g = GameDef(n=2, weights=(2, 1), charfun=cf)
    cs = ((1, 1), (1, 0), (1, 0))
    assert structure_value(g, cs) == 6
    cf.entries[(0,)][(1,)] = Fraction(5, 2)
    assert structure_value(g, cs) == 9 == sum(cf.value(c) for c in cs)


def test_enumerate_budget_guard(g1):
    tight = EnumerationBudget(max_agents=6, max_weight=4, max_structures=3)
    with pytest.raises(BudgetExceededError):
        list(enumerate_structures(g1, (2, 1), tight))


def test_cover_equals_enumeration_max():
    rng = random.Random(7)
    for _ in range(40):
        g = random_tree_game(rng, nmax=4)
        c = tuple(rng.randint(0, w) for w in g.weights)
        best = max(
            (structure_value(g, cs) for cs in enumerate_structures(g, c)),
            default=Fraction(0),
        )
        assert superadditive_cover(g, c)[0] == best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_cover_is_superadditive(seed):
    rng = random.Random(seed)
    g = random_tree_game(rng, nmax=4)
    a = tuple(rng.randint(0, w) for w in g.weights)
    b = tuple(rng.randint(0, w - x) for x, w in zip(a, g.weights))
    total = tuple(x + y for x, y in zip(a, b))
    va, _ = superadditive_cover(g, a)
    vb, _ = superadditive_cover(g, b)
    vt, _ = superadditive_cover(g, total)
    assert vt >= va + vb


def test_brute_arbval_examples(g1, o1):
    # conservative never depends on the outcome: it's the solo cover
    v, _ = brute_arbval(g1, CONSERVATIVE, o1, frozenset({0}))
    assert v == superadditive_cover(g1, (2, 0))[0] == 3
    v, _ = brute_arbval(g1, REFINED, o1, frozenset({0}))
    assert v == 3
    v, _ = brute_arbval(g1, REFINED, o1, frozenset({1}))
    assert v == 2


def test_brute_arbval_conservative_ignores_imputation():
    from ocf.core import support

    rng = random.Random(11)
    for _ in range(20):
        g = random_tree_game(rng, nmax=4)
        o_a = random_outcome(rng, g)
        # same structure, everything paid to the top support member instead
        imp = []
        for c in o_a.structure:
            x = [Fraction(0)] * g.n
            sup = sorted(support(c))
            if sup:
                x[sup[-1]] = g.charfun.value(c)
            imp.append(tuple(x))
        o_b = Outcome(structure=o_a.structure, imputation=tuple(imp))
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        va, _ = brute_arbval(g, CONSERVATIVE, o_a, S)
        vb, _ = brute_arbval(g, CONSERVATIVE, o_b, S)
        assert va == vb


def test_refined_at_least_conservative():
    rng = random.Random(13)
    for _ in range(30):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        vc, _ = brute_arbval(g, CONSERVATIVE, o, S)
        vr, _ = brute_arbval(g, REFINED, o, S)
        assert vr >= vc


def test_brute_arbval_witness_achieves_value(g1, o1):
    from ocf.arbitration import deviation_total

    for rule in (CONSERVATIVE, REFINED, SENSITIVE):
        for S in (frozenset({0}), frozenset({1}), frozenset({0, 1})):
            v, (dev, post) = brute_arbval(g1, rule, o1, S)
            assert deviation_total(g1, o1, S, dev, rule, post) == v


def test_brute_checkcore_examples(g1, o1):
    assert brute_checkcore(g1, CONSERVATIVE, o1) is None
    assert brute_checkcore(g1, REFINED, o1) is None
    skew = Outcome(
        structure=((1, 1), (1, 0)),
        imputation=((Fraction(4), Fraction(0)), (Fraction(1), Fraction(0))),
    )
    violation = brute_checkcore(g1, CONSERVATIVE, skew)
    assert violation is not None
    assert violation.agents == frozenset({1})
    assert violation.excess == 2


def test_brute_is_stable_examples(g1):
    imp = brute_is_stable(g1, CONSERVATIVE, ((1, 1), (1, 0)))
    assert imp is not None
    o = Outcome(structure=((1, 1), (1, 0)), imputation=imp)
    assert validate_outcome(o, g1) == []
    assert o.payoff_to_agent(0) >= 3 and o.payoff_to_agent(1) >= 2
    # agent 1 cannot be paid when it sits in no coalition
    assert brute_is_stable(g1, CONSERVATIVE, ((2, 0),)) is None


def test_brute_is_stable_single_agent():
    cf = make_charfun(1, 1, [((0,), (2,), Fraction(7))])
    g = GameDef(n=1, weights=(2,), charfun=cf)
    imp = brute_is_stable(g, CONSERVATIVE, ((2,),))
    assert imp == ((Fraction(7),),)


def test_brute_is_stable_rejects_sensitive(g1):
    from ocf.arbitration import UnsupportedRuleError

    with pytest.raises(UnsupportedRuleError):
        brute_is_stable(g1, SENSITIVE, ((1, 1),))


def test_checkcore_budget(g1, o1):
    with pytest.raises(BudgetExceededError):
        brute_checkcore(g1, CONSERVATIVE, o1, EnumerationBudget(max_agents=1))


def test_max_excess_matches_arbval_loop():
    """CheckCore and max excess share one cover table across all subsets;
    they must match a loop over the public per-subset ``brute_arbval``."""
    for rng, g in _seeded_games(23, 16, nmax=4):
        outcomes = [random_outcome(rng, g)]
        cs = superadditive_cover(g, g.weights, None)[1]
        imp = brute_is_stable(g, CONSERVATIVE, cs)
        if imp is not None:
            outcomes.append(Outcome(structure=cs, imputation=imp))
        for o, rule in product(outcomes, RULES5):
            best = None
            for S in iter_subsets(g.n):
                value, (dev, post) = brute_arbval(g, rule, o, S)
                excess = value - o.payoff_to_set(S)
                if best is None or excess > best[1]:
                    best = (S, excess, dev, post)
            S, excess, dev, post = best
            assert brute_max_excess(g, rule, o) == (excess, S)
            found = brute_checkcore(g, rule, o)
            if excess > 0:
                assert (found.agents, found.excess, found.deviation, found.post) == best
            else:
                assert found is None


def test_witnesses_share_the_games_vectors():
    """Every coalition of an oracle witness, filler or atom, is one of the
    game's own tuples, so answers kept side by side add no copies."""
    for rng, g in _seeded_games(29, 10, nmax=4):
        shared = {id(v) for v in g.charfun.vectors.values()} | {id(v) for v in g._solo_vectors.values()}
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        witnesses = [superadditive_cover(g, g.weights, None)[1], brute_arbval(g, REFINED, o, S)[1][1]]
        found = brute_checkcore(g, REFINED, o)
        if found is not None:
            witnesses.append(found.post)
        for cs in witnesses:
            assert all(id(c) in shared for c in cs), cs


def test_max_excess_names_the_games_own_sets():
    """The set that ``brute_max_excess`` and ``brute_checkcore`` name is one
    of the game's own frozensets, the one at its bitmask, so answers kept
    side by side share it."""
    for rng, g in _seeded_games(31, 10, nmax=4):
        o = random_outcome(rng, g)
        _, S = brute_max_excess(g, REFINED, o)
        assert S is g._agent_sets[sum(1 << i for i in S)]
        found = brute_checkcore(g, REFINED, o)
        assert found is None or found.agents is S
