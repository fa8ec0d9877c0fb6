import random
from fractions import Fraction

import pytest

from ocf.arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    SENSITIVE,
    Deviation,
    LocalArbitrationRule,
    UnsupportedRuleError,
    deviation_total,
    local_payoff,
    rule_from_name,
    sensitive_payoffs,
)
from ocf.core import ContractViolation, GameDef, Outcome, make_charfun
from conftest import (
    random_graph_game,
    random_k3_game,
    random_k_outcome,
    random_outcome,
    random_tree_game,
)


def test_rule_from_name():
    assert rule_from_name("conservative") is CONSERVATIVE
    assert rule_from_name("optimistic-clamped").clamped
    with pytest.raises(UnsupportedRuleError):
        rule_from_name("vindictive")


def test_local_payoff_examples(g1):
    S = frozenset({0})
    # refined, untouched coalition keeps paying the share
    assert local_payoff(REFINED, (1, 1), (0, 0), (Fraction(2), Fraction(2)), S, g1.charfun) == 2
    # optimistic: residual value minus what outsiders were promised
    v = local_payoff(OPTIMISTIC, (1, 1), (1, 0), (Fraction(3), Fraction(1)), S, g1.charfun)
    assert v == 1  # v((0,1)) - 1 = 2 - 1
    unclamped = local_payoff(OPTIMISTIC, (1, 1), (1, 0), (Fraction(1), Fraction(3)), S, g1.charfun)
    clamped = local_payoff(OPTIMISTIC_CLAMPED, (1, 1), (1, 0), (Fraction(1), Fraction(3)), S, g1.charfun)
    assert unclamped == -1 and clamped == 0
    assert local_payoff(CONSERVATIVE, (1, 1), (1, 0), (Fraction(2), Fraction(2)), S, g1.charfun) == 0


def test_local_payoff_preconditions(g1):
    with pytest.raises(ContractViolation):
        local_payoff(REFINED, (1, 1), (2, 0), (Fraction(2), Fraction(2)), frozenset({0}), g1.charfun)
    with pytest.raises(ContractViolation):
        local_payoff(REFINED, (1, 1), (0, 1), (Fraction(2), Fraction(2)), frozenset({0}), g1.charfun)
    with pytest.raises(ContractViolation, match="differ in length"):
        local_payoff(REFINED, (1, 1), (0, 0), (Fraction(2),), frozenset({1}), g1.charfun)


def test_local_payoff_refuses_a_withdrawal_of_the_wrong_length():
    """A withdrawal shorter or longer than its coalition is refused under
    every local rule, before the rule reads it (refined used to pay 2 for a
    one-entry withdrawal, and optimistic failed inside ``cf.value``)."""
    g, _ = _example_one_game()
    xc = (Fraction(2), Fraction(2), Fraction(0))
    for rule in LOCAL_RULES:
        for d in ((0,), (0, 0, 0, 0)):
            with pytest.raises(ContractViolation, match="withdrawal and coalition differ in length"):
                local_payoff(rule, (1, 1, 0), d, xc, frozenset({0}), g.charfun)


def _example_one_game():
    # three coalitions: c1 on {0,2}, c2 on {1,2}, c12 on {0,1,2}
    cf = make_charfun(
        3,
        3,
        [
            ((0, 2), (1, 1), Fraction(4)),
            ((1, 2), (1, 1), Fraction(4)),
            ((0, 1, 2), (1, 1, 1), Fraction(6)),
        ],
    )
    g = GameDef(n=3, weights=(2, 2, 3), charfun=cf)
    o = Outcome(
        structure=((1, 0, 1), (0, 1, 1), (1, 1, 1)),
        imputation=(
            (Fraction(2), Fraction(0), Fraction(2)),
            (Fraction(0), Fraction(2), Fraction(2)),
            (Fraction(2), Fraction(2), Fraction(2)),
        ),
    )
    return g, o


def test_sensitive_example_one():
    # agent 2 withdraws fully from c1: only c2 still pays it
    g, o = _example_one_game()
    S = frozenset({2})
    dev = Deviation(withdrawals={0: (0, 0, 1)})
    pays = sensitive_payoffs(g, o, S, dev)
    assert pays[0] == 0  # touched
    assert pays[1] == 2  # unhurt
    assert pays[2] == 0  # shares agent 0 with the hurt coalition


def test_sensitive_other_direction():
    # withdrawing from c2 instead hurts agent 1, so c1 still pays
    g, o = _example_one_game()
    S = frozenset({2})
    dev = Deviation(withdrawals={1: (0, 0, 1)})
    pays = sensitive_payoffs(g, o, S, dev)
    assert pays[0] == 2 and pays[1] == 0 and pays[2] == 0


def test_sensitive_empty_deviation_pays_everywhere():
    g, o = _example_one_game()
    pays = sensitive_payoffs(g, o, frozenset({2}), Deviation())
    assert pays == {0: 2, 1: 2, 2: 2}


def test_sensitive_refuses_short_payoff_vectors(g1):
    # one payoff entry for a two-agent coalition: S={0} used to read 4 and
    # S={1} an IndexError; both now get deviation_total's message
    o = Outcome(structure=((1, 1),), imputation=((Fraction(4),),))
    for S in (frozenset({0}), frozenset({1})):
        for call in (sensitive_payoffs, SENSITIVE.deviation_payoffs):
            with pytest.raises(ContractViolation, match=r"payoff vector 0: length 1 != n=2"):
                call(g1, o, S, Deviation())
        with pytest.raises(ContractViolation, match=r"payoff vector 0: length 1 != n=2"):
            deviation_total(g1, o, S, Deviation(), SENSITIVE, ())


def test_deviation_total_examples(g1, o1):
    S = frozenset({0})
    # withdraw the unit from the pair coalition and work alone with both units
    dev = Deviation(withdrawals={0: (1, 0)})
    assert deviation_total(g1, o1, S, dev, REFINED, ((2, 0),)) == 3
    # keep the pair untouched, reuse only the solo unit
    assert deviation_total(g1, o1, S, Deviation(), REFINED, ((1, 0),)) == 3
    # empty deviation under conservative: just the own structure's value
    assert deviation_total(g1, o1, S, Deviation(), CONSERVATIVE, ((1, 0),)) == 1


def test_deviation_total_resource_check(g1, o1):
    with pytest.raises(ContractViolation):
        deviation_total(g1, o1, frozenset({0}), Deviation(), REFINED, ((2, 0),))
    with pytest.raises(ContractViolation):
        deviation_total(g1, o1, frozenset({0}), Deviation(), REFINED, ((0, 1),))


def test_deviation_validation(g1, o1):
    S = frozenset({0})
    with pytest.raises(ContractViolation):
        deviation_total(g1, o1, S, Deviation(withdrawals={1: (1, 0)}), REFINED, ())
    with pytest.raises(ContractViolation):
        deviation_total(g1, o1, S, Deviation(withdrawals={0: (0, 1)}), REFINED, ())
    with pytest.raises(ContractViolation):
        deviation_total(g1, o1, S, Deviation(withdrawals={0: (2, 0)}), REFINED, ())


def test_locality_property_of_local_rules():
    """Changing the withdrawal from one coalition never moves another's payment."""
    g, o = _example_one_game()
    S = frozenset({2})
    d1 = Deviation(withdrawals={0: (0, 0, 1)})
    d2 = Deviation(withdrawals={0: (0, 0, 1), 1: (0, 0, 1)})
    for rule in (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED):
        p1 = rule.deviation_payoffs(g, o, S, d1)
        p2 = rule.deviation_payoffs(g, o, S, d2)
        assert p1[0] == p2[0] and p1[2] == p2[2]
    # the sensitive rule is non-local: coalition 2's payment flips
    p1 = SENSITIVE.deviation_payoffs(g, o, S, Deviation())
    p2 = SENSITIVE.deviation_payoffs(g, o, S, d1)
    assert p1[2] != p2[2]


def test_rule_ordering_conservative_sensitive_refined():
    rng = random.Random(17)
    trials = 0
    while trials < 40:
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        mixed = [
            j
            for j, c in enumerate(o.structure)
            if (frozenset(i for i, w in enumerate(c) if w) & S)
            and not frozenset(i for i, w in enumerate(c) if w) <= S
        ]
        withdrawals = {}
        for j in mixed:
            if rng.random() < 0.5:
                c = o.structure[j]
                d = [0] * g.n
                for i in S:
                    d[i] = rng.randint(0, c[i])
                if any(d):
                    withdrawals[j] = tuple(d)
        dev = Deviation(withdrawals=withdrawals)
        totals = {}
        for rule in (CONSERVATIVE, SENSITIVE, REFINED):
            pays = rule.deviation_payoffs(g, o, S, dev)
            totals[rule.name] = sum(pays.values(), start=Fraction(0))
        assert totals["conservative"] <= totals["sensitive"] <= totals["refined"]
        trials += 1


def test_refined_zero_withdrawal_exact_share():
    rng = random.Random(19)
    for _ in range(30):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        pays = REFINED.deviation_payoffs(g, o, S, Deviation())
        for j, p in pays.items():
            share = sum((o.imputation[j][i] for i in S), start=Fraction(0))
            assert p == share


LOCAL_RULES = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)


def _term_value(term, xc):
    coeffs, const = term
    return const + sum((a * xc[i] for i, a in coeffs.items()), start=Fraction(0))


def test_payment_terms_max_is_coalition_payoff():
    """The largest of a local rule's payment terms, at the coalition's payoff
    vector, is the payment, for every withdrawal from every mixed coalition.
    So is the largest of the rule's affine forms as the stability reference
    writes them from the definitions (``_payment_forms``), which shares no
    code with the rule objects."""
    from itertools import product

    from ocf.core import mixed_indices, support
    from test_stability_reference import _payment_forms, _value_table

    rng = random.Random(5)
    cases = 0
    for _ in range(120):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        table = _value_table(g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        for j in mixed_indices(o.structure, S):
            c, xc = o.structure[j], o.imputation[j]
            coords = sorted(support(c) & S)
            for amounts in product(*(range(c[i] + 1) for i in coords)):
                d = [0] * g.n
                for i, w in zip(coords, amounts):
                    d[i] = w
                for rule in LOCAL_RULES:
                    paid = rule.coalition_payoff(g.charfun, c, tuple(d), xc, S)
                    terms = rule.payment_terms(g.charfun, c, tuple(d), S)
                    assert max(_term_value(t, xc) for t in terms) == paid
                    forms = _payment_forms(rule.name, table, c, tuple(d), S, j)
                    assert max(const + sum(a * xc[i] for (_, i), a in form.items())
                               for form, const in forms) == paid
                    cases += 1
    assert cases >= 200


def test_optimistic_payoff_subtracts_side_payments_outside_the_support():
    """A payoff vector may pay agents outside its coalition's support, and
    the oracle and local ArbVal lanes accept such outcomes: the optimistic
    payment still subtracts every non-deviator's entry, v(c - d) minus the
    sum of xc[i] over i not in S, clamped at zero when the rule is."""
    from ocf.arbitration import withdrawal_options
    from ocf.core import mixed_indices, support, vec_sub

    rng = random.Random(7)
    cases = 0
    for _ in range(100):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        for j in mixed_indices(o.structure, S):
            c = o.structure[j]
            xc = tuple(
                x if i in support(c) else Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for i, x in enumerate(o.imputation[j])
            )
            outside = [i for i in range(g.n) if i not in support(c) | S]
            owed = sum((xc[i] for i in range(g.n) if i not in S), start=Fraction(0))
            for d in withdrawal_options(g, c, S):
                pay = g.charfun.value(vec_sub(c, d)) - owed
                assert OPTIMISTIC.coalition_payoff(g.charfun, c, d, xc, S) == pay
                assert OPTIMISTIC_CLAMPED.coalition_payoff(g.charfun, c, d, xc, S) == max(pay, 0)
                cases += any(xc[i] for i in outside)
    assert cases >= 30


def test_clamped_payment_terms_tie_at_zero(g1):
    """Withdrawing agent 0's unit from the pair leaves (0, 1), worth 2, and
    agent 1 was promised 2: the linear branch is exactly 0, as is the clamp."""
    S, c, d, xc = frozenset({0}), (1, 1), (1, 0), (Fraction(2), Fraction(2))
    linear, zero = OPTIMISTIC_CLAMPED.payment_terms(g1.charfun, c, d, S)
    assert linear == ({1: -1}, 2) and zero == ({}, 0)
    assert _term_value(linear, xc) == _term_value(zero, xc) == 0
    assert OPTIMISTIC_CLAMPED.coalition_payoff(g1.charfun, c, d, xc, S) == 0
    assert OPTIMISTIC.payment_terms(g1.charfun, c, d, S) == (linear,)


def test_available_is_own_plus_unused_plus_withdrawn():
    """What a deviating set may use, its weight minus what it leaves in the
    coalitions it shares with outsiders, is its own coalitions plus its
    unused weight plus what it withdraws, on 3-OCF outcomes with idle
    weight and random withdrawals."""
    from ocf.arbitration import deviation_available
    from ocf.core import mixed_indices, reduce_structure, structure_weight

    rng = random.Random(17)
    for _ in range(150):
        g = random_k3_game(rng)
        o = random_k_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        withdrawals = {}
        for j in mixed_indices(o.structure, S):
            c = o.structure[j]
            withdrawals[j] = tuple(rng.randint(0, w) if i in S else 0 for i, w in enumerate(c))
        own = structure_weight(reduce_structure(o.structure, S), g.n)
        committed = structure_weight(o.structure, g.n)
        freed = structure_weight(tuple(withdrawals.values()), g.n)
        want = tuple(
            own[i] + g.weights[i] - committed[i] + freed[i] if i in S else 0 for i in range(g.n)
        )
        dev = Deviation(withdrawals=withdrawals)
        assert deviation_available(g, o.structure, S, dev) == want


def _mixed_cases(seed: int, trials: int):
    """(game, coalition, deviating set) for every coalition each seeded set
    shares with outsiders, on tree and graph games."""
    from ocf.core import mixed_indices

    rng = random.Random(seed)
    for k in range(trials):
        g = (random_tree_game if k % 2 else random_graph_game)(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        for j in mixed_indices(o.structure, S):
            yield g, o.structure[j], S


def test_withdrawal_menus_are_options_with_the_full_withdrawal():
    """Every local rule's menu on a mixed coalition lists withdrawals S may
    make, each once, and among them the one of everything S puts in."""
    from ocf.arbitration import withdrawal_options

    cases = 0
    for g, c, S in _mixed_cases(23, 200):
        options = withdrawal_options(g, c, S)
        full = tuple(x if i in S else 0 for i, x in enumerate(c))
        for rule in LOCAL_RULES:
            menu = rule.withdrawal_menu(g, c, S)
            assert set(menu) <= set(options) and len(set(menu)) == len(menu)
            assert full in menu
        cases += 1
    assert cases >= 50


class _PlainRefined(LocalArbitrationRule):
    """Refined payments under a name the oracle has never seen, with the
    default withdrawal menu."""

    name = "plain-refined"

    def coalition_payoff(self, cf, c, d, xc, deviators):
        if any(d):
            return Fraction(0)
        return sum((xc[i] for i in deviators), start=Fraction(0))

    def payment_terms(self, cf, c, d, deviators):
        if any(d):
            return (({}, Fraction(0)),)
        return (({i: 1 for i, w in enumerate(c) if w and i in deviators}, Fraction(0)),)


def test_a_new_local_rule_runs_in_the_oracle_unchanged():
    """A local rule the oracle does not know by name gets the stability
    answers of the refined rule, whose payments it copies, from every
    withdrawal instead of the refined rule's two."""
    from ocf.oracle import brute_is_stable, superadditive_cover
    from conftest import random_structure

    rng = random.Random(29)
    rule = _PlainRefined()
    answers = {True: 0, False: 0}
    for k in range(60):
        g = (random_tree_game if k % 2 else random_graph_game)(rng, nmax=4)
        cs = random_structure(rng, g) if k % 3 else superadditive_cover(g, g.weights, None)[1]
        ours = brute_is_stable(g, rule, cs)
        assert ours == brute_is_stable(g, REFINED, cs), (k, cs)
        answers[ours is None] += 1
    assert min(answers.values()) >= 5, answers


def test_deviation_payoffs_pay_from_the_mixed_coalitions():
    """Every rule keys its payments by the coalitions S shares with
    outsiders, and a local rule's total is what paying every coalition S
    does not own gives: on a gated outcome the others pay S nothing."""
    from ocf.core import mixed_indices

    rng = random.Random(31)
    for k in range(120):
        g = (random_tree_game if k % 2 else random_graph_game)(rng, nmax=4)
        o = random_outcome(rng, g)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        mixed = mixed_indices(o.structure, S)
        dev = Deviation(
            withdrawals={
                j: tuple(rng.randint(0, w) if i in S else 0 for i, w in enumerate(o.structure[j]))
                for j in mixed
            }
        )
        for rule in (*LOCAL_RULES, SENSITIVE):
            assert list(rule.deviation_payoffs(g, o, S, dev)) == mixed
        for rule in LOCAL_RULES:
            every = sum(
                (
                    rule.coalition_payoff(g.charfun, c, dev.withdrawal(j, g.n), o.imputation[j], S)
                    for j, (c, sup) in enumerate(zip(o.structure, o.supports))
                    if not sup <= S
                ),
                start=Fraction(0),
            )
            assert sum(rule.deviation_payoffs(g, o, S, dev).values(), start=Fraction(0)) == every
