"""The oracle, tree and treewidth lanes against each other, and the rules'
order on each lane, on Hypothesis-drawn pairwise games.

Every test draws from ``conftest.shaped_cases``: a game on one of
``conftest.SHAPES`` (three forests; a triangle, a 4-cycle with and without a
chord and two disjoint triangles, of treewidth 2; K4, of treewidth 3) with a
random maximal structure, which often repeats a coalition.  The tree lane
runs on the forests.  Examples are a fixed sequence (``derandomize=True``),
and each test asserts that its examples reach the cases it is there for.
"""

from __future__ import annotations

import collections
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ocf.stability
from ocf.arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    deviation_total,
)
from ocf.core import (
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
    structure_value,
    structure_weight,
    validate_outcome,
)
from ocf.oracle import (
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
    arbval_tw,
    checkcore_tw,
    heuristic_decomposition,
    is_stable_tw,
    max_excess_tw,
    optval_tw,
)
from conftest import CYCLIC, SHAPES, random_split, shaped_cases

RULES = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)
# (less generous, more generous): the second pays a deviation at least what
# the first does, coalition by coalition
GENEROSITY = (
    (CONSERVATIVE, REFINED),
    (REFINED, OPTIMISTIC_CLAMPED),
    (CONSERVATIVE, OPTIMISTIC_CLAMPED),
    (OPTIMISTIC, OPTIMISTIC_CLAMPED),
)


def fuzz(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _lanes(g):
    """(name, ArbVal, max excess, CheckCore, Is-Stable) of each lane that
    takes the game: the oracle without a budget, the treewidth lane, and
    the tree lane on a forest."""
    lanes = [
        ("oracle",
         lambda rule, o, S: brute_arbval(g, rule, o, S, None)[0],
         lambda rule, o: brute_max_excess(g, rule, o, None)[0],
         lambda rule, o: brute_checkcore(g, rule, o, None),
         lambda rule, cs: brute_is_stable(g, rule, cs, None)),
        ("tw",
         lambda rule, o, S: arbval_tw(g, rule, o, S),
         lambda rule, o: max_excess_tw(g, rule, o)[0],
         lambda rule, o: checkcore_tw(g, rule, o),
         lambda rule, cs: is_stable_tw(g, rule, cs)),
    ]
    if g.interaction.is_forest():
        lanes.append(
            ("tree",
             lambda rule, o, S: arbval_tree(g, rule, o, S),
             lambda rule, o: max_excess_tree(g, rule, o)[0],
             lambda rule, o: checkcore_tree(g, rule, o),
             lambda rule, cs: is_stable_tree(g, rule, cs)))
    return lanes


def test_is_stable_tw_matches_the_oracle(monkeypatch):
    """``is_stable_tw`` and ``brute_is_stable`` give the same stable/none
    answer on games of treewidth 2 and 3 under every local rule, and each
    imputation either finds is valid and passes ``checkcore_tw`` and
    ``brute_checkcore``.  The examples reach both answers at both widths, a
    structure that repeats a coalition, and a separated set that
    ``split_violation`` splits into two or more components."""
    pieces = collections.Counter()
    split = ocf.stability.split_violation

    def counted_split(*args):
        parts = split(*args)
        pieces[len(parts)] += 1
        return parts

    monkeypatch.setattr(ocf.stability, "split_violation", counted_split)
    seen = collections.Counter()

    @fuzz(200)
    @given(case=shaped_cases(CYCLIC), rule=st.sampled_from(RULES))
    def check(case, rule):
        g, cs = case
        tw = is_stable_tw(g, rule, cs)
        oracle = brute_is_stable(g, rule, cs, None)
        assert (tw is None) == (oracle is None)
        seen[heuristic_decomposition(g.interaction).width, tw is None] += 1
        seen["repeat"] += len(set(cs)) < len(cs)
        for imp in (tw, oracle):
            if imp is not None:
                o = Outcome(structure=cs, imputation=imp)
                assert validate_outcome(o, g) == []
                assert checkcore_tw(g, rule, o) is None
                assert brute_checkcore(g, rule, o, None) is None

    check()
    assert all(seen[width, none] for width in (2, 3) for none in (False, True)), seen
    assert seen["repeat"] and max(pieces) >= 2, (seen, pieces)


def test_lanes_agree_on_optval_arbval_checkcore():
    """On every shape, the oracle, the treewidth lane, the tree lane (on
    forests) and the local withdrawal DP give the same OptVal, ArbVal,
    CheckCore answer and maximum excess, and every witness re-checks through
    ``structure_value`` or ``deviation_total``.  The outcome is a random
    split of the structure's values, or a stable imputation of it when one
    exists, so both CheckCore answers are reached."""
    seen = collections.Counter()

    @fuzz(80)
    @given(case=shaped_cases(tuple(SHAPES)), rule=st.sampled_from(RULES),
           stable=st.booleans(), rng=st.randoms(use_true_random=True))
    def check(case, rule, stable, rng):
        g, cs = case
        forest = g.interaction.is_forest()
        c = tuple(rng.randint(0, w) for w in g.weights)
        value, _ = superadditive_cover(g, c, None)
        for v, witness in [optval_tw(g, None, c)] + ([optval_tree(g, c)] if forest else []):
            assert v == value == structure_value(g, witness)
            assert structure_weight(witness, g.n) == c

        imp = is_stable_tw(g, rule, cs) if stable else None
        o = Outcome(structure=cs, imputation=imp) if imp else random_split(rng, g, cs)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        best, (dev, post) = brute_arbval(g, rule, o, S, None)
        assert deviation_total(g, o, S, dev, rule, post) == best
        arbvals = [arbval_tw] + ([arbval_local] if len(S) <= 4 else []) + ([arbval_tree] if forest else [])
        for arbval in arbvals:
            v, dev, post = arbval(g, rule, o, S, with_witness=True)
            assert v == best == deviation_total(g, o, S, dev, rule, post), arbval.__name__

        worst = brute_checkcore(g, rule, o, None)
        excess, _ = brute_max_excess(g, rule, o, None)
        checks = [(checkcore_tw, max_excess_tw)] + ([(checkcore_tree, max_excess_tree)] if forest else [])
        for checkcore, max_excess in checks:
            assert max_excess(g, rule, o)[0] == excess
            found = checkcore(g, rule, o)
            assert (found is None) == (worst is None) == (excess <= 0)
            if found is not None:
                gained = deviation_total(g, o, found.agents, found.deviation, rule, found.post)
                assert gained - o.payoff_to_set(found.agents) == found.excess == excess
        seen[forest, worst is None] += 1

    check()
    assert all(seen[forest, core] for forest in (False, True) for core in (False, True)), seen


def test_rules_are_ordered_on_every_lane():
    """On every lane, ArbVal and the maximum excess never decrease from the
    conservative to the refined to the clamped optimistic rule, nor from the
    unclamped to the clamped optimistic rule; and an imputation that
    Is-Stable finds under a rule passes CheckCore under every less generous
    one.  Each ArbVal relation is strict somewhere in the examples."""
    strict = collections.Counter()
    stable = collections.Counter()

    @fuzz(60)
    @given(case=shaped_cases(tuple(SHAPES)), rng=st.randoms(use_true_random=True))
    def check(case, rng):
        g, cs = case
        o = random_split(rng, g, cs)
        sets = {frozenset(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(3)}
        for name, arbval, max_excess, checkcore, is_stable in _lanes(g):
            excesses = {rule: max_excess(rule, o) for rule in RULES}
            for lo, hi in GENEROSITY:
                assert excesses[lo] <= excesses[hi], (name, lo, hi)
            for S in sets:
                values = {rule: arbval(rule, o, S) for rule in RULES}
                for lo, hi in GENEROSITY:
                    assert values[lo] <= values[hi], (name, S, lo, hi)
                    strict[lo, hi] += values[lo] < values[hi]
            for hi in (REFINED, OPTIMISTIC_CLAMPED):
                imp = is_stable(hi, cs)
                if imp is not None:
                    stable[hi] += 1
                    found = Outcome(structure=cs, imputation=imp)
                    for lo in (lo for lo, more in GENEROSITY if more is hi):
                        assert checkcore(lo, found) is None, (name, lo, hi)

    check()
    assert all(strict[pair] for pair in GENEROSITY), strict
    assert stable[REFINED] and stable[OPTIMISTIC_CLAMPED], stable


def _scaled(g, q):
    """The game with every stored value times ``q``."""
    rows = [(sup, contrib, v * q) for sup, table in g.charfun.entries.items() for contrib, v in table.items()]
    return GameDef(n=g.n, weights=g.weights, charfun=make_charfun(g.n, g.charfun.k, rows),
                   interaction=g.interaction)


def test_scaling_every_value_scales_every_answer():
    """Times a positive rational q, every value of a game and every payoff of
    an outcome scale OptVal, ArbVal and the maximum excess by q on every
    lane (and ArbVal on the local withdrawal DP), and leave Is-Stable's
    stable/none answer as it was.  The lanes' tables hold ints at the lcm of
    the denominators they read, and q moves those denominators.  The
    examples reach both Is-Stable answers on every lane, a positive and a
    zero maximum excess, and a q that is not an integer."""
    seen = collections.Counter()

    @fuzz(50)
    @given(case=shaped_cases(tuple(SHAPES)), rule=st.sampled_from(RULES),
           q=st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
           rng=st.randoms(use_true_random=True))
    def check(case, rule, q, rng):
        g, cs = case
        gq = _scaled(g, q)
        forest = g.interaction.is_forest()
        c = tuple(rng.randint(0, w) for w in g.weights)
        optvals = [lambda h: superadditive_cover(h, c, None)[0], lambda h: optval_tw(h, None, c)[0]]
        if forest:
            optvals.append(lambda h: optval_tree(h, c)[0])
        for optval in optvals:
            assert optval(gq) == q * optval(g)

        o = random_split(rng, g, cs)
        oq = Outcome(structure=cs, imputation=tuple(tuple(q * x for x in row) for row in o.imputation))
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        if len(S) <= 4:
            assert arbval_local(gq, rule, oq, S) == q * arbval_local(g, rule, o, S)
        for (name, arbval, max_excess, _, is_stable), (_, arbval_q, max_excess_q, _, is_stable_q) in zip(
            _lanes(g), _lanes(gq)
        ):
            assert arbval_q(rule, oq, S) == q * arbval(rule, o, S), name
            excess = max_excess(rule, o)
            assert max_excess_q(rule, oq) == q * excess, name
            none = is_stable(rule, cs) is None
            assert (is_stable_q(rule, cs) is None) == none, name
            seen[name, none] += 1
            seen["excess > 0" if excess > 0 else "excess 0"] += 1
        seen["q not an integer"] += q.denominator > 1

    check()
    assert all(seen[name, none] for name in ("oracle", "tw", "tree") for none in (False, True)), seen
    assert seen["excess > 0"] and seen["excess 0"] and seen["q not an integer"], seen


def _with_isolated_agent(g, cs):
    """The game with one more agent, of weight 1, in no stored coalition and
    no edge, and the structure with that agent's zero-valued solo coalition."""
    n = g.n
    rows = [(sup, contrib, v) for sup, table in g.charfun.entries.items() for contrib, v in table.items()]
    edges = [tuple(e) for e in g.interaction.edges]
    g1 = GameDef(n=n + 1, weights=g.weights + (1,), charfun=make_charfun(n + 1, g.charfun.k, rows),
                 interaction=InteractionGraph.from_pairs(n + 1, edges))
    return g1, tuple(c + (0,) for c in cs) + ((0,) * n + (1,),)


def test_an_isolated_agent_changes_no_is_stable_answer():
    """An agent that nothing values, alone in its own coalition, leaves every
    lane's Is-Stable answer (stable or none) as it was, and every imputation
    found with it is a valid outcome that pays its coalition nothing.  The
    examples reach both answers on every lane."""
    seen = collections.Counter()

    @fuzz(40)
    @given(case=shaped_cases(tuple(SHAPES)), rule=st.sampled_from(RULES))
    def check(case, rule):
        g, cs = case
        g1, cs1 = _with_isolated_agent(g, cs)
        for (name, *_, is_stable), (_, *_, is_stable_1) in zip(_lanes(g), _lanes(g1), strict=True):
            none = is_stable(rule, cs) is None
            imp = is_stable_1(rule, cs1)
            assert (imp is None) == none, name
            if imp is not None:
                assert validate_outcome(Outcome(structure=cs1, imputation=imp), g1) == [], name
                assert not any(imp[-1]), name
            seen[name, none] += 1

    check()
    assert all(seen[name, none] for name in ("oracle", "tw", "tree") for none in (False, True)), seen


def test_an_isolated_agent_changes_no_value():
    """The same isolated agent leaves OptVal (with its unit in the resources
    or not), ArbVal (of a set with it or without it) and the maximum excess
    as they were on every lane (ArbVal on the local withdrawal DP too), and
    so CheckCore's answer; every witness found with it re-checks on the
    larger game.  The examples reach both CheckCore answers on every lane."""
    seen = collections.Counter()

    @fuzz(40)
    @given(case=shaped_cases(tuple(SHAPES)), rule=st.sampled_from(RULES),
           rng=st.randoms(use_true_random=True))
    def check(case, rule, rng):
        g, cs = case
        g1, cs1 = _with_isolated_agent(g, cs)
        o = random_split(rng, g, cs)
        o1 = Outcome(structure=cs1, imputation=tuple(x + (0,) for x in o.imputation) + ((0,) * (g.n + 1),))
        c = tuple(rng.randint(0, w) for w in g.weights)
        value, _ = superadditive_cover(g, c, None)
        optvals = [lambda h, c: optval_tw(h, None, c)] + ([optval_tree] if g.interaction.is_forest() else [])
        for optval in optvals:
            for c1 in (c + (0,), c + (1,)):
                v, witness = optval(g1, c1)
                assert v == value == structure_value(g1, witness) and structure_weight(witness, g1.n) == c1
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        arbvals = [arbval_tw] + ([arbval_tree] if g.interaction.is_forest() else [])
        for S1 in (S, S | {g.n}):
            for arbval in arbvals + ([arbval_local] if len(S1) <= 4 else []):
                v, dev, post = arbval(g1, rule, o1, S1, with_witness=True)
                assert v == arbval_tw(g, rule, o, S) == deviation_total(g1, o1, S1, dev, rule, post)
        for (name, arbval, max_excess, checkcore, _), (_, arbval_1, max_excess_1, checkcore_1, _) in zip(
            _lanes(g), _lanes(g1), strict=True
        ):
            assert arbval_1(rule, o1, S) == arbval(rule, o, S), name
            excess = max_excess(rule, o)
            assert max_excess_1(rule, o1) == excess, name
            found = checkcore_1(rule, o1)
            assert (found is None) == (checkcore(rule, o) is None) == (excess <= 0), name
            if found is not None:
                gained = deviation_total(g1, o1, found.agents, found.deviation, rule, found.post)
                assert gained - o1.payoff_to_set(found.agents) == found.excess == excess, name
            seen[name, found is None] += 1

    check()
    assert all(seen[name, core] for name in ("oracle", "tw", "tree") for core in (False, True)), seen


def _relabelled(g, perm):
    """The game with agent ``i`` renamed ``perm[i]``: its weight, its entries
    and its edges go along."""
    rows = []
    for sup, table in g.charfun.entries.items():
        for contrib, v in table.items():
            moved = sorted(zip((perm[i] for i in sup), contrib))
            rows.append(([i for i, _ in moved], [w for _, w in moved], v))
    weights = [0] * g.n
    for i, w in enumerate(g.weights):
        weights[perm[i]] = w
    edges = [(perm[a], perm[b]) for a, b in g.interaction.edges]
    return GameDef(n=g.n, weights=tuple(weights), charfun=make_charfun(g.n, g.charfun.k, rows),
                   interaction=InteractionGraph.from_pairs(g.n, edges))


def _moved(vector, perm):
    """A per-agent vector with entry ``i`` moved to ``perm[i]``."""
    out = [None] * len(vector)
    for i, x in enumerate(vector):
        out[perm[i]] = x
    return tuple(out)


def test_relabelling_the_agents_permutes_every_answer():
    """Renaming the agents by a permutation, in the game, the outcome, the
    structure, the resources and the deviating set, leaves OptVal, ArbVal,
    the maximum excess and Is-Stable's stable/none answer as they were on
    every lane, and the renamed worst set of the original game has that
    maximum excess in the renamed one.  The bag lanes lay their bags out in
    agent order, so the renamed game runs them through other layouts.  The
    examples reach a positive maximum excess and both Is-Stable answers on
    every lane, and a permutation that moves every agent."""
    seen = collections.Counter()

    @fuzz(60)
    @given(case=shaped_cases(tuple(SHAPES)), rule=st.sampled_from(RULES),
           rng=st.randoms(use_true_random=True))
    def check(case, rule, rng):
        g, cs = case
        perm = rng.sample(range(g.n), g.n)
        gp = _relabelled(g, perm)
        csp = tuple(_moved(c, perm) for c in cs)
        o = random_split(rng, g, cs)
        op = Outcome(structure=csp, imputation=tuple(_moved(x, perm) for x in o.imputation))
        c = tuple(rng.randint(0, w) for w in g.weights)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        Sp = frozenset(perm[i] for i in S)
        optvals = [lambda h, c: superadditive_cover(h, c, None)[0], lambda h, c: optval_tw(h, None, c)[0]]
        if g.interaction.is_forest():
            optvals.append(lambda h, c: optval_tree(h, c)[0])
        for optval in optvals:
            assert optval(gp, _moved(c, perm)) == optval(g, c)
        worst_sets = {
            "oracle": lambda h, o: brute_max_excess(h, rule, o, None),
            "tw": lambda h, o: max_excess_tw(h, rule, o),
            "tree": lambda h, o: max_excess_tree(h, rule, o),
        }
        for (name, arbval, _, _, is_stable), (_, arbval_p, _, _, is_stable_p) in zip(
            _lanes(g), _lanes(gp), strict=True
        ):
            assert arbval_p(rule, op, Sp) == arbval(rule, o, S), name
            excess, worst = worst_sets[name](g, o)
            excess_p, worst_p = worst_sets[name](gp, op)
            assert excess_p == excess and worst and worst_p, name
            moved = frozenset(perm[i] for i in worst)
            assert arbval_p(rule, op, moved) - op.payoff_to_set(moved) == excess, name
            none = is_stable(rule, cs) is None
            assert (is_stable_p(rule, csp) is None) == none, name
            seen[name, none] += 1
            seen["excess > 0"] += excess > 0
        seen["every agent moves"] += all(perm[i] != i for i in range(g.n))

    check()
    assert all(seen[name, none] for name in ("oracle", "tw", "tree") for none in (False, True)), seen
    assert seen["excess > 0"] and seen["every agent moves"], seen
