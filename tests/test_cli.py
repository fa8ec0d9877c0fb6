import json

import pytest

from ocf.arbitration import REFINED, Deviation, deviation_total
from ocf.cli import main
from ocf.io import dump_game, dump_outcome, load_outcome
from ocf.core import GameDef, InteractionGraph, Outcome, make_charfun
from ocf.rationals import parse_rational
from fractions import Fraction


@pytest.fixture
def files(tmp_path, g1, o1):
    game = tmp_path / "g1.json"
    outcome = tmp_path / "o1.json"
    dump_game(g1, game)
    dump_outcome(o1, outcome)
    return {"game": str(game), "outcome": str(outcome), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_tree_optval_threshold(files, capsys):
    code, out, _ = run(capsys, "tree", "optval", "--game", files["game"], "--all",
                       "--threshold", "5")
    assert code == 0 and "value: 5" in out
    code, out, _ = run(capsys, "tree", "optval", "--game", files["game"], "--all",
                       "--threshold", "11/2")
    assert code == 1


def test_oracle_checkcore_in_core(files, capsys):
    code, out, _ = run(capsys, "oracle", "checkcore", "--game", files["game"],
                       "--outcome", files["outcome"], "--arb", "refined")
    assert code == 0 and "in core" in out


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "oracle", "optval", "--game", "/no/such.json", "--all")
    assert code == 2 and "no such file" in err


def test_unknown_flag_is_exit_2(files, capsys):
    code, _, _ = run(capsys, "tree", "optval", "--game", files["game"], "--all",
                     "--frobnicate")
    assert code == 2


def test_budget_exit_3(files, capsys):
    code, _, err = run(capsys, "oracle", "optval", "--game", files["game"], "--all",
                       "--budget-max-agents", "1")
    assert code == 3 and "budget" in err


def test_machine_output_deterministic(files, capsys):
    args = ("tw", "optval", "--game", files["game"], "--all", "--auto",
            "--format", "machine")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["value"] == "5" and doc["version"]


def test_all_lanes_agree(files, capsys):
    values = []
    for lane in ("oracle", "tree"):
        code, out, _ = run(capsys, lane, "arbval", "--game", files["game"],
                           "--outcome", files["outcome"], "--set", "0",
                           "--arb", "refined", "--format", "machine")
        assert code == 0
        values.append(json.loads(out)["value"])
    code, out, _ = run(capsys, "tw", "arbval", "--game", files["game"],
                       "--outcome", files["outcome"], "--set", "0",
                       "--arb", "refined", "--format", "machine")
    values.append(json.loads(out)["value"])
    assert values == ["3", "3", "3"]


def test_empty_set_arbval_on_every_lane(files, capsys):
    """The empty set deviates to nothing: value 0, no withdrawal, no post
    structure, exit 0 on each lane."""
    lanes = (("oracle",), ("tree",), ("tree", "--local"), ("tw",))
    for lane in lanes:
        code, out, _ = run(capsys, lane[0], "arbval", *lane[1:], "--game", files["game"],
                           "--outcome", files["outcome"], "--set", "",
                           "--arb", "refined", "--format", "machine")
        assert code == 0, lane
        doc = json.loads(out)
        assert (doc["value"], doc["deviation"], doc["post_structure"]) == ("0", {}, []), lane


def test_overcommitted_structure_is_exit_2(files, capsys):
    over = files["dir"] / "over.json"
    over.write_text(json.dumps({"structure": [[2, 1], [1, 0]]}))
    for lane in (("oracle",), ("tree",), ("tw", "--experimental", "--auto")):
        code, _, err = run(capsys, lane[0], "is-stable", *lane[1:], "--game", files["game"],
                           "--outcome", str(over), "--arb", "refined")
        assert code == 2 and "endowments" in err, lane


def test_overcommitted_outcome_is_exit_2_on_arbval_and_checkcore(files, capsys):
    over = files["dir"] / "over_outcome.json"
    over.write_text(json.dumps({"structure": [[2, 1], [1, 0]],
                                "imputation": [["0", "0"], ["1", "0"]]}))
    for argv in (("oracle", "arbval", "--set", "0"), ("tree", "arbval", "--local", "--set", "0"),
                 ("oracle", "checkcore")):
        code, _, err = run(capsys, *argv, "--game", files["game"], "--outcome", str(over),
                           "--arb", "refined")
        assert code == 2 and "endowments" in err, argv


def test_invalid_outcome_is_exit_2_on_checkcore_and_is_stable(files, capsys):
    """Every CheckCore lane refuses an inefficient imputation, and the tree
    lane's Is-Stable a coalition across a non-edge."""
    greedy = files["dir"] / "greedy_outcome.json"
    greedy.write_text(json.dumps({"structure": [[1, 1], [1, 0]],
                                  "imputation": [["9", "9"], ["1", "0"]]}))
    for argv in (("oracle", "checkcore"), ("tree", "checkcore"), ("tw", "checkcore", "--auto")):
        code, _, err = run(capsys, *argv, "--game", files["game"], "--outcome", str(greedy),
                           "--arb", "refined")
        assert code == 2 and "efficiency" in err, argv
    cf = make_charfun(3, 2, [((0, 1), (1, 1), Fraction(1)), ((0,), (1,), Fraction(10)),
                             ((2,), (1,), Fraction(10))])
    path = GameDef(n=3, weights=(1, 1, 1), charfun=cf,
                   interaction=InteractionGraph.from_pairs(3, [(0, 1), (1, 2)]))
    game = files["dir"] / "path3.json"
    dump_game(path, game)
    wide = files["dir"] / "wide_outcome.json"
    wide.write_text(json.dumps({"structure": [[1, 0, 1], [0, 1, 0]],
                                "imputation": [["0", "0", "0"], ["0", "0", "0"]]}))
    code, _, err = run(capsys, "tree", "is-stable", "--game", str(game), "--outcome", str(wide),
                       "--arb", "refined")
    assert code == 2 and "non-edge" in err


def test_is_stable_round_trip(files, capsys, g1):
    out_path = files["dir"] / "stable.json"
    code, _, _ = run(capsys, "tree", "is-stable", "--game", files["game"],
                     "--outcome", files["outcome"], "--arb", "conservative",
                     "--out", str(out_path))
    assert code == 0
    o = load_outcome(out_path, 2)
    from ocf.core import validate_outcome

    assert validate_outcome(o, g1) == []
    code, _, _ = run(capsys, "validate", "outcome", "--path", str(out_path),
                     "--game", files["game"])
    assert code == 0


def test_is_stable_no(files, capsys, tmp_path, g1):
    lone = tmp_path / "lone.json"
    dump_outcome(Outcome(structure=((2, 0),), imputation=((Fraction(3), Fraction(0)),)), lone)
    code, out, _ = run(capsys, "tree", "is-stable", "--game", files["game"],
                       "--outcome", str(lone), "--arb", "conservative")
    assert code == 1


def test_sensitive_rejected_by_tree_lane(files, capsys):
    code, _, err = run(capsys, "tree", "arbval", "--game", files["game"],
                       "--outcome", files["outcome"], "--set", "0",
                       "--arb", "sensitive")
    assert code == 2 and "local" in err


def test_gen_and_solve_round_trip(tmp_path, capsys):
    game = tmp_path / "x3c.json"
    code, out, _ = run(capsys, "gen", "x3c", "--elements", "3",
                       "--subset", "0,1,2", "--out", str(game),
                       "--format", "machine")
    assert code == 0
    threshold = json.loads(out)["threshold"]
    assert threshold == "6"
    code, _, _ = run(capsys, "oracle", "optval", "--game", str(game), "--all",
                     "--threshold", threshold, "--budget-max-agents", "12")
    assert code == 0
    code, _, _ = run(capsys, "validate", "game", "--path", str(game))
    assert code == 0


def test_lbg_cli_round_trip(tmp_path, capsys):
    inst = tmp_path / "mkt.json"
    code, _, _ = run(capsys, "lbg", "gen-market", "--sellers", "1,1", "--buyers", "1",
                     "--price", "0-0=3", "--price", "1-0=1", "--out", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "lbg", "solve", "--instance", str(inst),
                       "--cross-check", "--format", "machine")
    assert code == 0 and json.loads(out)["value"] == "3"
    code, _, _ = run(capsys, "lbg", "verify", "--instance", str(inst), "--grid", "1/2")
    assert code == 0
    code, out, _ = run(capsys, "lbg", "core", "--instance", str(inst),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)["outcome"]
    assert sum(json.loads(f'"{v}"') is not None for v in doc["agent_totals"]) == 3


def test_set_cover_decide(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "set-cover", "--elements-list", "0,1",
                       "--subset", "0", "--subset", "1", "--cover-size", "2",
                       "--game-out", str(tmp_path / "sc_g.json"),
                       "--outcome-out", str(tmp_path / "sc_o.json"),
                       "--decide", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "yes"


def test_tw_is_stable_requires_flag(files, capsys):
    code, _, err = run(capsys, "tw", "is-stable", "--game", files["game"],
                       "--outcome", files["outcome"], "--arb", "conservative",
                       "--auto")
    assert code == 2 and "experimental" in err
    code, _, _ = run(capsys, "tw", "is-stable", "--game", files["game"],
                     "--outcome", files["outcome"], "--arb", "conservative",
                     "--auto", "--experimental")
    assert code == 0


def test_emitted_witness_reloads(files, capsys, tmp_path, g1):
    code, out, _ = run(capsys, "oracle", "optval", "--game", files["game"], "--all",
                       "--format", "machine")
    assert code == 0
    witness = json.loads(out)["witness"]
    doc = {"structure": witness, "imputation": [["0", "0"] for _ in witness]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    o = load_outcome(path, 2)
    from ocf.core import structure_weight

    assert structure_weight(o.structure, 2) == (2, 1)


def test_tree_checkcore_prints_witness(files, capsys, g1):
    """A refuted outcome comes with a deviation and post structure that earn
    the set's payoff plus the reported excess; the machine output repeats."""
    lazy = Outcome(structure=((1, 0),), imputation=((Fraction(1), Fraction(0)),))
    path = files["dir"] / "lazy.json"
    dump_outcome(lazy, path)
    args = ("tree", "checkcore", "--game", files["game"], "--outcome", str(path),
            "--arb", "refined", "--format", "machine")
    code, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert code == 1 and out1 == out2
    doc = json.loads(out1)
    agents = frozenset(doc["violating_set"])
    dev = Deviation(withdrawals={int(j): tuple(d) for j, d in doc["deviation"].items()})
    post = tuple(tuple(c) for c in doc["post_structure"])
    gained = deviation_total(g1, lazy, agents, dev, REFINED, post) - lazy.payoff_to_set(agents)
    assert gained == parse_rational(doc["excess"]) > 0
    code, out, _ = run(capsys, *args[:-2])
    assert code == 1 and "witness: withdraw" in out


def test_arbval_witness_reevaluates(tmp_path, capsys):
    """`tree arbval` (with and without --local) and `tw arbval` emit the
    deviation and post structure that earn the reported value, and their
    machine output repeats byte for byte."""
    import random

    from ocf.arbitration import rule_from_name
    from conftest import random_outcome, random_tree_game

    rng = random.Random(41)
    lanes = (("tree",), ("tree", "--local"), ("tw",))
    checked = withdrawn = 0
    for trial in range(16):
        g = random_tree_game(rng, nmax=4)
        o = random_outcome(rng, g)
        game, outcome = tmp_path / f"g{trial}.json", tmp_path / f"o{trial}.json"
        dump_game(g, game)
        dump_outcome(o, outcome)
        o = load_outcome(outcome, g.n)
        arb = ("conservative", "refined", "optimistic", "optimistic-clamped")[trial % 4]
        agents = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        for lane in lanes:
            args = (lane[0], "arbval", *lane[1:], "--game", str(game), "--outcome", str(outcome),
                    "--set", ",".join(map(str, sorted(agents))), "--arb", arb,
                    "--format", "machine")
            code, out1, _ = run(capsys, *args)
            _, out2, _ = run(capsys, *args)
            assert code == 0 and out1 == out2
            doc = json.loads(out1)
            dev = Deviation(withdrawals={int(j): tuple(d) for j, d in doc["deviation"].items()})
            post = tuple(tuple(c) for c in doc["post_structure"])
            total = deviation_total(g, o, agents, dev, rule_from_name(arb), post)
            assert total == parse_rational(doc["value"]), (lane, arb, agents)
            checked += 1
            withdrawn += bool(dev.withdrawals)
    assert checked == 48 and withdrawn >= 6
