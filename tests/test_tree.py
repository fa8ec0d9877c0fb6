import random
import re
from fractions import Fraction

import pytest

from ocf.arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    SENSITIVE,
    Deviation,
    deviation_total,
    sensitive_payoffs,
)
from ocf.core import (
    ContractViolation,
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
    EnumerationBudget,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    brute_max_excess,
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
from ocf.treewidth import (
    AlphaTable,
    KeepTable,
    UnsupportedGameError,
    UnsupportedOutcomeError,
    arbval_tw,
    check_outcome_shape,
    checkcore_tw,
    heuristic_decomposition,
    is_stable_tw,
    max_excess_tw,
    forest_decomposition,
    optval_tw,
)
import ocf.stability as stability_module
from conftest import (
    fan3_game,
    random_graph_game,
    random_k3_game,
    random_k_outcome,
    random_outcome,
    random_structure,
    random_tree_game,
)

RULES = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)
# room for the clamped optimistic stability system of random structures
WIDE_ORACLE = EnumerationBudget(max_agents=8)


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


def test_every_local_lane_rejects_sensitive(g1, o1):
    """Every lane that needs a local rule says so in one message."""
    from ocf.arbitration import UnsupportedRuleError

    td = heuristic_decomposition(g1.interaction)
    cs = o1.structure
    for call in (
        lambda: max_excess_tree(g1, SENSITIVE, o1),
        lambda: checkcore_tree(g1, SENSITIVE, o1),
        lambda: is_stable_tree(g1, SENSITIVE, cs),
        lambda: arbval_tw(g1, SENSITIVE, o1, frozenset({0})),
        lambda: checkcore_tw(g1, SENSITIVE, o1, td),
        lambda: max_excess_tw(g1, SENSITIVE, o1, td),
        lambda: is_stable_tw(g1, SENSITIVE, cs, td),
        lambda: stability_module.stability_lp(g1, SENSITIVE, cs),
        lambda: stability_module.StabilitySystem(g1, SENSITIVE, cs),
    ):
        with pytest.raises(UnsupportedRuleError, match="needs a local rule"):
            call()


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


def test_arbval_tree_answers_five_agent_cycles():
    """``arbval_tree`` takes a set of any size that induces a cycle: on
    five-agent sets of cyclic games it agrees with the oracle under every
    local rule, and each witness re-evaluates to its value."""
    rng = random.Random(109)
    cases = 0
    while cases < 12:
        g = random_graph_game(rng, nmax=6, wmax=2)
        if g.n < 5:
            continue
        S = frozenset(rng.sample(range(g.n), 5))
        induced = [(a, b) for a, b in g.interaction.simple_edges() if a in S and b in S]
        if InteractionGraph.from_pairs(g.n, induced).is_forest():
            continue
        cases += 1
        o = random_outcome(rng, g)
        for rule in RULES:
            b, _ = brute_arbval(g, rule, o, S)
            v, dev, post = arbval_tree(g, rule, o, S, with_witness=True)
            assert v == b
            assert deviation_total(g, o, S, dev, rule, post) == v


def test_arbval_local_agrees_off_trees():
    """``arbval_local`` on 3-OCF games and on cyclic pairwise games, with
    structures that leave weight unused, matches the oracle under every
    local rule, and each witness re-evaluates to its value."""
    rng = random.Random(83)
    idle = 0
    for trial in range(300):
        if trial % 2:
            g = random_k3_game(rng)
            o = random_k_outcome(rng, g)
        else:
            g = random_graph_game(rng, nmax=4)
            o = random_outcome(rng, g)
        idle += structure_weight(o.structure, g.n) != g.weights
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        for rule in RULES:
            b, _ = brute_arbval(g, rule, o, S)
            v, dev, post = arbval_local(g, rule, o, S, with_witness=True)
            assert v == b
            assert deviation_total(g, o, S, dev, rule, post) == v
    assert idle >= 150


def test_empty_set_on_every_lane():
    """S = {} earns 0 with no withdrawal and no post structure on every
    ArbVal lane."""
    rng = random.Random(89)
    none = frozenset()
    for trial in range(8):
        g = random_tree_game(rng)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        assert brute_arbval(g, rule, o, none) == (0, (Deviation(), ()))
        for lane in (arbval_local, arbval_tree, arbval_tw):
            assert lane(g, rule, o, none) == 0
            assert lane(g, rule, o, none, with_witness=True) == (0, Deviation(), ())


def test_every_is_stable_lane_refuses_overcommitted_structures():
    """A structure asking more than the endowments is a contract violation
    on the oracle, tree and treewidth lanes alike."""
    cf = make_charfun(2, 2, [((0,), (1,), 1), ((0, 1), (1, 1), 4)])
    g = GameDef(n=2, weights=(1, 1), charfun=cf, interaction=InteractionGraph.from_pairs(2, [(0, 1)]))
    cs = ((1, 0), (1, 1))
    t = heuristic_decomposition(g.interaction)
    for rule in RULES:
        with pytest.raises(ContractViolation, match="endowments"):
            brute_is_stable(g, rule, cs)
        with pytest.raises(ContractViolation, match="endowments"):
            is_stable_tree(g, rule, cs)
        with pytest.raises(ContractViolation, match="endowments"):
            is_stable_tw(g, rule, cs, t)


def test_arbval_and_checkcore_lanes_refuse_overcommitted_structures(g1):
    """The oracle and the local DP refuse an outcome whose structure asks
    more than the endowments, as the bag-DP lanes do."""
    F = Fraction
    o = Outcome(structure=((2, 1), (1, 0)), imputation=((F(0), F(0)), (F(1), F(0))))
    S = frozenset({0})
    for call in (
        lambda: brute_arbval(g1, REFINED, o, S),
        lambda: brute_checkcore(g1, REFINED, o),
        lambda: brute_max_excess(g1, REFINED, o),
        lambda: arbval_local(g1, REFINED, o, S),
        lambda: arbval_tree(g1, REFINED, o, S),
    ):
        with pytest.raises(ContractViolation, match="endowments"):
            call()


def test_every_checkcore_lane_refuses_inefficient_outcomes(g1):
    """An imputation that pays a coalition more than its value is a contract
    violation on the oracle, tree and treewidth lanes alike."""
    F = Fraction
    o = Outcome(structure=((1, 1), (1, 0)), imputation=((F(9), F(9)), (F(1), F(0))))
    for call in (
        lambda: brute_checkcore(g1, REFINED, o),
        lambda: brute_max_excess(g1, REFINED, o),
        lambda: checkcore_tree(g1, REFINED, o),
        lambda: max_excess_tree(g1, REFINED, o),
        lambda: checkcore_tw(g1, REFINED, o),
        lambda: max_excess_tw(g1, REFINED, o),
    ):
        with pytest.raises(ContractViolation, match="efficiency: coalition 0 pays 18"):
            call()


def test_is_stable_refuses_non_pairwise_structures():
    """A structure with a coalition across a non-edge is outside the bag-DP
    lanes' contract whether or not its stability system is feasible."""
    edge = ((0, 1), (1, 1), Fraction(1))
    solos = [((0,), (1,), Fraction(10)), ((2,), (1,), Fraction(10))]
    cs = ((1, 0, 1), (0, 1, 0))
    for rows in ([edge, *solos], [edge]):
        g = GameDef(
            n=3,
            weights=(1, 1, 1),
            charfun=make_charfun(3, 2, rows),
            interaction=InteractionGraph.from_pairs(3, [(0, 1), (1, 2)]),
        )
        for rule in RULES:
            for call in (lambda: is_stable_tree(g, rule, cs), lambda: is_stable_tw(g, rule, cs)):
                with pytest.raises(UnsupportedOutcomeError, match="non-edge"):
                    call()


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
        if cc is not None:
            assert cc.deviation is not None and cc.post is not None
            total = deviation_total(g, o, cc.agents, cc.deviation, rule, cc.post)
            assert total - o.payoff_to_set(cc.agents) == cc.excess == tv
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


def test_stability_cuts_hold_at_core_imputations(monkeypatch):
    """Every cut the cutting-plane loop adds, including the clamped optimistic
    cut with its branch frozen at the candidate, holds at the oracle's
    stabilizing imputation: no cut ever excludes a core point.  So does every
    individual-rationality row either lane seeds its system with.

    Under the unclamped optimistic rule each cut is constant in the
    imputation (efficiency turns the deviators' payoffs plus the shortfalls
    they cover into coalition values), so a cut there always ends the loop
    with "no imputation"; the oracle must agree."""
    cuts = []
    seeds = []
    exact_cut = stability_module._stability_cut
    exact_ir_rows = stability_module.ir_rows

    def recording_cut(g, cs, deviators, dev, post_value, rule, candidate, var_of):
        coeffs, const = exact_cut(g, cs, deviators, dev, post_value, rule, candidate, var_of)
        cuts.append((coeffs, const, var_of))
        return coeffs, const

    def recording_ir_rows(g, cs, var_of):
        rows = exact_ir_rows(g, cs, var_of)
        seeds.extend((coeffs, const, var_of) for coeffs, const in rows)
        return rows

    monkeypatch.setattr(stability_module, "_stability_cut", recording_cut)
    monkeypatch.setattr(stability_module, "ir_rows", recording_ir_rows)
    rng = random.Random(73)
    cases = []
    for trial in range(120):
        g = random_tree_game(rng, nmax=3)
        cases.append((g, RULES[trial % 4], optval_tree(g, g.weights)[1]))
    # the IR rows settle most of those in one round; four-agent trees, and
    # random structures next to the optimal ones, take more cuts
    rng = random.Random(74)
    for trial in range(120):
        g = random_tree_game(rng, nmax=4)
        for cs in (optval_tree(g, g.weights)[1], random_structure(rng, g)):
            cases.append((g, RULES[trial % 4], cs))
    checked = {rule.name: 0 for rule in RULES}
    seeded = 0
    for g, rule, cs in cases:
        cuts.clear()
        seeds.clear()
        found = is_stable_tree(g, rule, cs)
        imp = brute_is_stable(g, rule, cs, WIDE_ORACLE)
        assert (found is None) == (imp is None)
        if imp is None:
            continue
        for coeffs, const, var_of in cuts:
            at = sum((coeffs.get(v, 0) * imp[j][i] for (j, i), v in var_of.items()), start=Fraction(0))
            assert at >= const
            checked[rule.name] += 1
        for coeffs, const, var_of in seeds:
            at = sum((coeffs.get(v, 0) * imp[j][i] for (j, i), v in var_of.items()), start=Fraction(0))
            assert at >= const
            seeded += 1
    assert checked.pop(OPTIMISTIC.name) == 0
    assert all(count >= 3 for count in checked.values()), checked
    assert seeded > 0


def test_is_stable_round_budget():
    """Running out of cutting-plane rounds is a budget error, not a crash.
    The first candidate of the fan game pays agent 0 nothing, and the pair
    {0, 1} deviates; the one cut that fixes it needs a second round."""
    g, cs = fan3_game()
    with pytest.raises(BudgetExceededError):
        is_stable_tree(g, CONSERVATIVE, cs, max_rounds=1)
    imp = is_stable_tree(g, CONSERVATIVE, cs, max_rounds=2)
    assert imp == ((Fraction(1), Fraction(0), Fraction(3)), (Fraction(0),) * 3)
    assert brute_checkcore(g, CONSERVATIVE, Outcome(structure=cs, imputation=imp)) is None


def test_is_stable_imputations_are_individually_rational():
    """Is-Stable's imputations pass every outcome invariant, full-endowment
    individual rationality included, under all four linear rules and on
    every lane, and the lanes agree on "no imputation".  The first game is
    one where the unclamped optimistic core holds a point paying agent 0
    nothing though it makes 3 alone; the IR rows the stability system is
    seeded with keep such points out."""
    F = Fraction
    cf = make_charfun(2, 2, [
        ((0,), (3,), F(3)),
        ((0, 1), (1, 2), F(3)),
        ((0, 1), (2, 2), F(2)),
        ((0, 1), (3, 1), F(1)),
        ((0, 1), (3, 2), F(9)),
    ])
    g = GameDef(n=2, weights=(3, 2), charfun=cf, interaction=InteractionGraph.from_pairs(2, [(0, 1)]))
    assert brute_checkcore(g, OPTIMISTIC, Outcome(structure=((3, 2),), imputation=((F(0), F(9)),))) is None
    cases = [(g, ((3, 2),))]
    rng = random.Random(79)
    for trial in range(120):
        g = (random_tree_game if trial % 2 else random_graph_game)(rng, nmax=4, wmax=2)
        td = heuristic_decomposition(g.interaction)
        cs = optval_tw(g, td, g.weights)[1] if trial % 3 else random_structure(rng, g)
        cases.append((g, cs))
    stable = none = 0
    for g, cs in cases:
        td = heuristic_decomposition(g.interaction)
        for rule in RULES:
            answers = [is_stable_tw(g, rule, cs, td), brute_is_stable(g, rule, cs, WIDE_ORACLE)]
            if g.interaction.is_forest():
                answers.append(is_stable_tree(g, rule, cs))
            assert len({imp is None for imp in answers}) == 1
            if answers[0] is None:
                none += 1
                continue
            stable += 1
            for imp in answers:
                o = Outcome(structure=cs, imputation=imp)
                assert validate_outcome(o, g) == []
                assert brute_checkcore(g, rule, o) is None
    assert stable > 100 and none > 100, (stable, none)


def test_check_outcome_shape_errors(g1):
    """Efficiency is judged on the whole payoff vector before payments
    outside the support are rejected, whichever entries carry them."""
    F = Fraction
    cases = [
        (((1, 0),), ((F(1), F(0)),), None),
        (((1, 0),), ((F(0), F(1)),), "pays outside"),
        (((1, 0),), ((F(1), F(1)),), "efficiency"),
        (((1, 0),), ((F(2), F(-1)),), "pays outside"),
        (((1, 1),), ((F(5), F(-1)),), "pays outside"),
        (((1, 1),), ((F(2), F(1)),), "efficiency"),
    ]
    for cs, imp, error in cases:
        o = Outcome(structure=cs, imputation=imp)
        if error is None:
            check_outcome_shape(g1, o)
        else:
            with pytest.raises(ContractViolation, match=error):
                check_outcome_shape(g1, o)


def test_forest_decomposition_deterministic():
    """Components are rooted at their lowest vertex and searched breadth
    first, children ascending; later roots hang under the first root's bag."""
    graph = InteractionGraph.from_pairs(5, [(3, 1), (1, 0), (2, 4)])
    t = forest_decomposition(graph)
    assert t.bags == tuple(map(frozenset, ({0}, {0, 1}, {1, 3}, {2}, {2, 4})))
    assert t.edges == ((0, 1), (1, 2), (0, 3), (3, 4))
    assert t.root == 0
    sub = forest_decomposition(graph, {1, 3, 4})
    assert sub.bags == tuple(map(frozenset, ({1}, {1, 3}, {4})))
    assert sub.edges == ((0, 1), (0, 2))
    assert sub.root == 0


def test_witnesses_share_the_game_vectors():
    """Every stored coalition in a bag-DP witness is the game's own vector
    object, so answers kept from repeated calls hold no copies."""
    rng = random.Random(73)
    for trial in range(20):
        g = random_tree_game(rng)
        vectors = g.charfun.vectors
        assert set(vectors) == {
            (sup, contrib) for sup, table in g.charfun.entries.items() for contrib in table
        }
        canonical = {id(v) for v in vectors.values()}
        assert all(id(c) in canonical for c, _ in g.charfun.atoms())
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        _, first = optval_tree(g, g.weights)
        _, again = optval_tree(g, g.weights)
        _, _, post = arbval_tree(g, RULES[trial % 4], o, S, with_witness=True)
        for c in first + again + post:
            if g.charfun.value(c) > 0:
                assert id(c) in canonical


def test_deviation_witnesses_share_the_game_vectors():
    """On every ArbVal lane, a withdrawal by one agent is the game's own solo
    vector and every valued post-deviation coalition is the game's own
    vector, so kept answers hold no copies."""
    rng = random.Random(97)
    for trial in range(20):
        g = random_tree_game(rng)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        rule = RULES[trial % 4]
        shared = {id(v) for v in g.charfun.vectors.values()}
        solo = {id(v) for v in g._solo_vectors.values()}
        _, (dev0, post0) = brute_arbval(g, rule, o, S)
        answers = [(dev0, post0)]
        for lane in (arbval_local, arbval_tree, arbval_tw):
            _, dev, post = lane(g, rule, o, S, with_witness=True)
            answers.append((dev, post))
        for dev, post in answers:
            for d in dev.withdrawals.values():
                assert id(d) in solo
            for c in post:
                if g.charfun.value(c) > 0:
                    assert id(c) in shared


def test_payoff_vectors_of_the_wrong_length_are_refused():
    """The oracle and local ArbVal lanes refuse a payoff vector whose
    length is not n with ``outcome_violations``' message, through the same
    ``core.require_outcome`` as the bag lanes; so does the witness evaluator
    ``deviation_total``.  A one-entry vector on a two-agent coalition once
    read as a payment of 4 under the refined and optimistic rules."""
    cf = make_charfun(2, 2, [((0, 1), (1, 1), Fraction(4))])
    g = GameDef(n=2, weights=(1, 1), charfun=cf, interaction=InteractionGraph.from_pairs(2, [(0, 1)]))
    for x in ((Fraction(4),), (Fraction(4), Fraction(0), Fraction(0))):
        o = Outcome(structure=((1, 1),), imputation=(x,))
        message = re.escape(f"payoff vector 0: length {len(x)} != n=2")
        for rule in (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED):
            for S in (frozenset({0}), frozenset({0, 1})):
                with pytest.raises(ContractViolation, match=message):
                    brute_arbval(g, rule, o, S)
                with pytest.raises(ContractViolation, match=message):
                    arbval_local(g, rule, o, S)
                with pytest.raises(ContractViolation, match=message):
                    deviation_total(g, o, S, Deviation(), rule, ())


def test_alpha_table_is_the_chain_of_its_keep_tables():
    """``AlphaTable`` is one chain over every coalition an agent shares with
    the given neighbours; by associativity its values are the 1-d (max,+)
    chain of the neighbours' ``KeepTable`` values, and each best split keeps
    y units in those coalitions alone, paid as ``value(y)`` says."""
    rng = random.Random(29)
    for trial in range(60):
        g = (random_graph_game if trial % 2 else random_tree_game)(rng)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        i = rng.randrange(g.n)
        nbrs = g.interaction.neighbors(i)
        others = sorted(rng.sample(nbrs, rng.randint(0, len(nbrs))))
        alpha = AlphaTable(g, o, rule, i, others)
        want = [Fraction(0)]
        for keep in (KeepTable(g, o, rule, i, j) for j in others):
            merged = [None] * (len(want) + len(keep.values) - 1)
            for a, va in enumerate(want):
                for b, vb in enumerate(keep.values):
                    if va is not None and vb is not None:
                        if merged[a + b] is None or va + vb > merged[a + b]:
                            merged[a + b] = va + vb
            want = merged
        assert alpha.values == want and alpha.cap == len(want) - 1
        pairs = {frozenset((i, k)) for k in others}
        shared = {j for j, sup in enumerate(o.supports) if sup in pairs}
        S = frozenset((i,))
        for y, v in enumerate(alpha.values):
            if v is None:
                continue
            kept = alpha.keeps(y)
            assert set(kept) == shared and sum(kept.values()) == y
            paid = Fraction(0)
            for j, k in kept.items():
                c = o.structure[j]
                d = tuple(c[a] - k if a == i else 0 for a in range(g.n))
                paid += rule.coalition_payoff(g.charfun, c, d, o.imputation[j], S)
            assert paid == v == alpha.value(y)


def test_deviating_sets_outside_the_agents_are_refused():
    """A deviating set naming an agent outside range(n) is refused, naming
    the agent.  A negative index once read another agent's entries: {0, -1}
    scored 10 in ``deviation_total`` and 18 under the sensitive oracle, and
    every DP lane raised ``KeyError`` or ``IndexError``."""
    rng = random.Random(5)
    g = random_tree_game(rng)
    o = random_outcome(rng, g)
    assert g.n == 4
    for S, bad in ((frozenset({-1}), -1), (frozenset({4}), 4), (frozenset({0, -1}), -1)):
        message = re.escape(f"agent {bad} out of range for n=4")
        for call in (
            lambda: brute_arbval(g, REFINED, o, S),
            lambda: brute_arbval(g, SENSITIVE, o, S),
            lambda: arbval_local(g, REFINED, o, S),
            lambda: arbval_tree(g, REFINED, o, S),
            lambda: arbval_tw(g, REFINED, o, S),
            lambda: deviation_total(g, o, S, Deviation(), REFINED, ()),
            lambda: sensitive_payoffs(g, o, S, Deviation()),
        ):
            with pytest.raises(ContractViolation, match=message):
                call()
