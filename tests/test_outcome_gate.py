"""One outcome gate, ``core.require_outcome``: every solver that takes an
outcome refuses the same outcomes with the same first message, and checks a
given outcome once per game object."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import ocf.core
from ocf.arbitration import REFINED, Deviation, deviation_total, sensitive_payoffs
from ocf.cli import main
from ocf.core import ContractViolation, GameDef, Outcome, outcome_violations
from ocf.io import dump_game, outcome_to_dict
from ocf.oracle import brute_arbval, brute_checkcore, brute_max_excess
from ocf.tree import (
    arbval_local,
    arbval_tree,
    checkcore_tree,
    max_excess_tree,
)
from ocf.treewidth import arbval_tw, checkcore_tw, max_excess_tw

F = Fraction
S0 = frozenset({0})

# bad outcomes on G1 (weights (2, 1)), each pairwise-shaped so that the tree
# lanes reach the outcome check
BAD_OUTCOMES = {
    "inefficient": (((1, 1), (1, 0)), ((F(9), F(9)), (F(1), F(0)))),
    "side payment": (((1, 1), (1, 0)), ((F(2), F(2)), (F(0), F(1)))),
    "payoff length": (((1, 1), (1, 0)), ((F(2), F(2)), (F(1),))),
    "over the endowments": (((2, 1), (1, 0)), ((F(0), F(0)), (F(1), F(0)))),
}

LANES = {
    "brute_arbval": lambda g, o: brute_arbval(g, REFINED, o, S0),
    "arbval_local": lambda g, o: arbval_local(g, REFINED, o, S0),
    "arbval_tree": lambda g, o: arbval_tree(g, REFINED, o, S0),
    "arbval_tw": lambda g, o: arbval_tw(g, REFINED, o, S0),
    "brute_checkcore": lambda g, o: brute_checkcore(g, REFINED, o),
    "checkcore_tree": lambda g, o: checkcore_tree(g, REFINED, o),
    "checkcore_tw": lambda g, o: checkcore_tw(g, REFINED, o),
    "brute_max_excess": lambda g, o: brute_max_excess(g, REFINED, o),
    "max_excess_tree": lambda g, o: max_excess_tree(g, REFINED, o),
    "max_excess_tw": lambda g, o: max_excess_tw(g, REFINED, o),
    "deviation_total": lambda g, o: deviation_total(g, o, S0, Deviation(), REFINED, ()),
    "sensitive_payoffs": lambda g, o: sensitive_payoffs(g, o, S0, Deviation()),
}


@pytest.mark.parametrize("name", sorted(BAD_OUTCOMES))
def test_lanes_agree_on_invalid_outcomes(name, g1, tmp_path, capsys):
    cs, imp = BAD_OUTCOMES[name]
    o = Outcome(structure=cs, imputation=imp)
    first = outcome_violations(g1, o)[0]
    for lane, call in LANES.items():
        with pytest.raises(ContractViolation) as info:
            call(g1, o)
        assert str(info.value) == first, (lane, str(info.value))
    game = tmp_path / "g1.json"
    dump_game(g1, game)
    outcome = tmp_path / "bad.json"
    outcome.write_text(json.dumps(
        {"structure": [list(c) for c in cs], "imputation": [[str(v) for v in x] for x in imp]}
    ))
    for argv in (("oracle", "arbval"), ("tree", "arbval", "--local"), ("tree", "arbval")):
        code = main([*argv, "--set", "0", "--game", str(game), "--outcome", str(outcome),
                     "--arb", "refined"])
        _, err = capsys.readouterr()
        assert code == 2, (argv, err)
        if name != "payoff length":  # that file is refused by the loader
            assert f"error: {first}" in err, (argv, err)


@pytest.fixture
def count_checks(monkeypatch):
    calls = []
    real = ocf.core.outcome_violations

    def counted(g, o):
        calls.append(o)
        return real(g, o)

    monkeypatch.setattr(ocf.core, "outcome_violations", counted)
    return calls


def test_each_outcome_is_checked_once_per_game(g1, o1, count_checks):
    for S in (S0, frozenset({1}), frozenset({0, 1})):
        brute_arbval(g1, REFINED, o1, S)
    arbval_local(g1, REFINED, o1, S0)
    arbval_tree(g1, REFINED, o1, S0)
    checkcore_tree(g1, REFINED, o1)
    assert len(count_checks) == 1
    twin = GameDef(n=g1.n, weights=g1.weights, charfun=g1.charfun, interaction=g1.interaction)
    assert twin == g1 and twin is not g1
    arbval_tw(twin, REFINED, o1, S0)
    assert len(count_checks) == 2
    arbval_tw(twin, REFINED, o1, S0)
    assert len(count_checks) == 2


def test_invalid_outcomes_are_never_recorded(g1, count_checks):
    cs, imp = BAD_OUTCOMES["inefficient"]
    o = Outcome(structure=cs, imputation=imp)
    for k in range(1, 4):
        with pytest.raises(ContractViolation):
            arbval_local(g1, REFINED, o, S0)
        assert len(count_checks) == k


def test_the_record_is_not_part_of_the_outcome(g1, o1):
    fresh = Outcome(structure=o1.structure, imputation=o1.imputation)
    checkcore_tree(g1, REFINED, o1)
    assert o1 == fresh
    assert hash(o1) == hash(fresh)
    assert outcome_to_dict(o1) == outcome_to_dict(fresh)
    assert repr(o1) == repr(fresh)
