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
    args = ("tw", "optval", "--game", files["game"], "--all",
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
    for lane in ("oracle", "tree", "tw"):
        code, _, err = run(capsys, lane, "is-stable", "--game", files["game"],
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


def test_malformed_outcome_shape_is_exit_2(files, capsys):
    """A number where the structure's list belongs, or JSON ``true`` for a
    contribution, is a load error (exit 2), not a crash (exit 1) or a unit."""
    for structure in (5, [[True, True]]):
        bad = files["dir"] / "bad_shape.json"
        bad.write_text(json.dumps({"structure": structure, "imputation": [["2", "2"]]}))
        code, _, err = run(capsys, "oracle", "arbval", "--set", "0", "--game", files["game"],
                           "--outcome", str(bad), "--arb", "refined")
        assert code == 2 and err.startswith("error: structure"), (structure, err)


def test_invalid_outcome_is_exit_2_on_checkcore_and_is_stable(files, capsys):
    """Every CheckCore lane refuses an inefficient imputation, and the tree
    lane's Is-Stable a coalition across a non-edge."""
    greedy = files["dir"] / "greedy_outcome.json"
    greedy.write_text(json.dumps({"structure": [[1, 1], [1, 0]],
                                  "imputation": [["9", "9"], ["1", "0"]]}))
    for argv in (("oracle", "checkcore"), ("tree", "checkcore"), ("tw", "checkcore")):
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


def test_local_rule_check_is_the_librarys(files, capsys):
    """Every command that needs a local rule takes --arb sensitive and exits
    2 with the library's refusal, on every lane."""
    o = ("--game", files["game"], "--outcome", files["outcome"], "--arb", "sensitive")
    for argv in (("tree", "checkcore"), ("tw", "checkcore"), ("tw", "arbval", "--set", "0"),
                 ("oracle", "is-stable"), ("tree", "is-stable"), ("tw", "is-stable")):
        code, _, err = run(capsys, *argv, *o)
        assert code == 2 and "needs a local rule, not 'sensitive'" in err, argv


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


def test_tw_is_stable_answers_without_a_switch(files, capsys):
    """``tw is-stable`` needs no extra flag: on the forest G1 it prints the
    tree lane's document under its own command name, for every local rule."""
    for arb in ("conservative", "refined", "optimistic", "optimistic-clamped"):
        argv = ("is-stable", "--game", files["game"], "--outcome", files["outcome"],
                "--arb", arb, "--format", "machine")
        code, out, _ = run(capsys, "tw", *argv)
        tree_code, tree_out, _ = run(capsys, "tree", *argv)
        doc, tree_doc = json.loads(out), json.loads(tree_out)
        assert code == tree_code == 0 and doc.pop("command") == "tw is-stable", arb
        tree_doc.pop("command")
        assert doc == tree_doc and doc["decision"] == "yes", arb


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


def test_tw_commands_build_their_own_decomposition(tmp_path, capsys):
    """Without --decomp every tw command answers as it does with a min-fill
    decomposition file, on tree and on cyclic games, and its witness
    re-checks: the optimal structure by its value, a deviation by what it
    earns, a stable imputation by the oracle's CheckCore."""
    import random

    from ocf.arbitration import rule_from_name
    from ocf.core import structure_value, validate_outcome
    from ocf.io import decomposition_to_dict, outcome_from_dict
    from ocf.oracle import brute_checkcore
    from ocf.treewidth import heuristic_decomposition
    from conftest import random_graph_game, random_outcome, random_tree_game

    rng = random.Random(15)
    codes = []
    for trial in range(12):
        g = (random_graph_game if trial % 2 else random_tree_game)(rng, nmax=4)
        o = random_outcome(rng, g)
        game, outcome, decomp = (tmp_path / f"{x}{trial}.json" for x in "god")
        dump_game(g, game)
        dump_outcome(o, outcome)
        decomp.write_text(json.dumps(decomposition_to_dict(heuristic_decomposition(g.interaction))))
        o = load_outcome(outcome, g.n)
        arb = ("conservative", "refined", "optimistic", "optimistic-clamped")[trial % 4]
        rule = rule_from_name(arb)
        agents = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        with_o = ("--outcome", str(outcome), "--arb", arb)
        commands = (("optval", "--all"),
                    ("arbval", *with_o, "--set", ",".join(map(str, agents))),
                    ("checkcore", *with_o),
                    ("is-stable", *with_o))
        for command in commands:
            argv = ("tw", *command, "--game", str(game), "--format", "machine")
            code, out, _ = run(capsys, *argv)
            ref_code, ref_out, _ = run(capsys, *argv, "--decomp", str(decomp))
            doc, ref = json.loads(out), json.loads(ref_out)
            assert code == ref_code in (0, 1), (trial, command)
            assert [doc.get(k) for k in ("value", "excess", "decision")] == \
                [ref.get(k) for k in ("value", "excess", "decision")], (trial, command)
            codes.append((command[0], code))
            if command[0] == "optval":
                witness = tuple(tuple(c) for c in doc["witness"])
                assert structure_value(g, witness) == parse_rational(doc["value"])
            elif command[0] == "is-stable" and code == 0:
                stable = outcome_from_dict(doc["outcome"], g.n)
                assert validate_outcome(stable, g) == []
                assert brute_checkcore(g, rule, stable) is None
            elif "deviation" in doc:
                dev = Deviation(withdrawals={int(j): tuple(d) for j, d in doc["deviation"].items()})
                post = tuple(tuple(c) for c in doc["post_structure"])
                S = frozenset(doc.get("violating_set", agents))
                gained = deviation_total(g, o, S, dev, rule, post)
                if command[0] == "checkcore":
                    gained -= o.payoff_to_set(S)
                assert gained == parse_rational(doc.get("excess", doc.get("value")))
    assert {("checkcore", 1), ("is-stable", 0), ("is-stable", 1)} <= set(codes)


def test_malformed_flag_values_are_exit_2(files, capsys):
    """A flag value that does not fit its form is a data error naming the
    flag, not a crash."""
    out = ("--out", str(files["dir"] / "x.json"))
    cases = (
        (("lbg", "gen-flow", "--edge", "0x1", *out), "--edge '0x1'"),
        (("lbg", "gen-routing", "--capacities", "1,1", "--demand", "0,1", *out), "--demand '0,1'"),
        (("lbg", "gen-market", "--sellers", "1", "--buyers", "1", "--price", "0=3", *out),
         "--price '0=3'"),
        (("gen", "x3c", "--elements", "3", "--subset", "0,1,x", *out), "--subset '0,1,x'"),
        (("tree", "arbval", "--game", files["game"], "--outcome", files["outcome"],
          "--set", "0,x"), "--set '0,x'"),
        (("tree", "optval", "--game", files["game"], "--coalition", "1;0"), "--coalition '1;0'"),
    )
    for argv, bad in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2 and f"error: bad {bad}" in err, argv


_COMMON_OPTIONS = " --format --timing"
_BUDGET_OPTIONS = " --budget-max-agents --budget-max-weight --budget-max-structures"
LEAF_OPTIONS = {
    "oracle optval": "--game --coalition --all --threshold" + _BUDGET_OPTIONS,
    "oracle arbval": "--game --outcome --set --arb --threshold" + _BUDGET_OPTIONS,
    "oracle checkcore": "--game --outcome --arb" + _BUDGET_OPTIONS,
    "oracle is-stable": "--game --outcome --arb --out" + _BUDGET_OPTIONS,
    "tree optval": "--game --coalition --all --threshold",
    "tree arbval": "--game --outcome --set --arb --threshold --local",
    "tree checkcore": "--game --outcome --arb",
    "tree is-stable": "--game --outcome --arb --out",
    "tw optval": "--game --coalition --all --threshold --decomp",
    "tw arbval": "--game --outcome --set --arb --threshold --decomp",
    "tw checkcore": "--game --outcome --arb --decomp",
    "tw is-stable": "--game --outcome --arb --out --decomp",
    "lbg solve": "--instance --cross-check",
    "lbg core": "--instance",
    "lbg verify": "--instance --grid",
    "lbg gen-flow": "--edge --capacity --supplier --max-path-len --out",
    "lbg gen-market": "--sellers --buyers --price --out",
    "lbg gen-routing": "--capacities --edge --demand --max-path-len --out",
    "gen x3c": "--elements --subset --out",
    "gen indep-set": "--vertices --edge --size --eps --out",
    "gen set-cover": "--elements-list --subset --cover-size --game-out --outcome-out --decide"
                     + _BUDGET_OPTIONS,
    "validate game": "--path",
    "validate outcome": "--path --game --ir-mode",
    "validate decomp": "--path --game",
}


def test_cli_surface_is_pinned():
    """Each leaf command offers exactly the options in LEAF_OPTIONS (plus
    --format, --timing and -h), so a flag added or dropped shows here."""
    import argparse

    from ocf.cli import build_parser

    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield " ".join(path), parser
        for sub in subs:
            for name, child in sub.choices.items():
                yield from leaves(child, path + (name,))

    surface = {path: sorted(s for a in p._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for path, p in leaves(build_parser(), ())}
    assert surface == {path: sorted((opts + _COMMON_OPTIONS).split())
                       for path, opts in LEAF_OPTIONS.items()}


def test_readme_cli_examples_parse():
    """Every ``ocf ...`` line in README's CLI code block parses, so a removed
    or renamed flag cannot stay in the docs."""
    import shlex
    from pathlib import Path

    from ocf.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ocf ")]
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv)
