import pytest

from ocf.io import (
    DataError,
    dump_game,
    dump_lbg,
    dump_outcome,
    dump_decomposition,
    game_from_dict,
    game_to_dict,
    lbg_from_dict,
    lbg_to_dict,
    load_game,
    load_lbg,
    load_outcome,
    load_decomposition,
    outcome_from_dict,
    decomposition_from_dict,
    decomposition_to_dict,
)
from ocf.treewidth import heuristic_decomposition
from conftest import random_outcome, random_tree_game

G1_DOC = {
    "n": 2,
    "weights": [2, 1],
    "k": 2,
    "coalitions": [
        {"support": [0], "contribution": [1], "value": "1"},
        {"support": [0], "contribution": [2], "value": "3"},
        {"support": [1], "contribution": [1], "value": "2"},
        {"support": [0, 1], "contribution": [1, 1], "value": "4"},
    ],
    "graph": {"edges": [[0, 1]]},
}


def test_game_round_trip(tmp_path):
    g = game_from_dict(G1_DOC)
    path = tmp_path / "g.json"
    dump_game(g, path)
    again = load_game(path)
    assert again == g
    assert game_to_dict(again) == game_to_dict(g)


def test_game_rejections():
    doc = dict(G1_DOC)
    doc["coalitions"] = [{"support": [1, 0], "contribution": [1, 1], "value": "1"}]
    with pytest.raises(DataError):
        game_from_dict(doc)
    doc["coalitions"] = [{"support": [0], "contribution": [1], "value": "-1"}]
    with pytest.raises(DataError):
        game_from_dict(doc)
    doc["coalitions"] = [{"support": [0], "contribution": [1], "value": "2/4"}]
    with pytest.raises(DataError):
        game_from_dict(doc)
    doc["coalitions"] = [{"support": [0], "contribution": [3], "value": "1"}]
    with pytest.raises(DataError):
        game_from_dict(doc)  # contribution above the weight
    doc = dict(G1_DOC)
    doc["graph"] = {"edges": [[0, 5]]}
    with pytest.raises(DataError):
        game_from_dict(doc)


def test_game_rejects_disconnected_support():
    doc = {
        "n": 3,
        "weights": [1, 1, 1],
        "k": 2,
        "coalitions": [{"support": [0, 2], "contribution": [1, 1], "value": "1"}],
        "graph": {"edges": [[0, 1], [1, 2]]},
    }
    with pytest.raises(DataError):
        game_from_dict(doc)


def test_outcome_round_trip(tmp_path):
    import random

    rng = random.Random(5)
    g = random_tree_game(rng)
    o = random_outcome(rng, g)
    path = tmp_path / "o.json"
    dump_outcome(o, path)
    assert load_outcome(path, g.n) == o


def test_outcome_rejections():
    with pytest.raises(DataError):
        outcome_from_dict({"structure": [[1]]}, 2)
    with pytest.raises(DataError):
        outcome_from_dict({"structure": [[1, 0]], "imputation": [["1", "x"]]}, 2)
    with pytest.raises(DataError):
        outcome_from_dict({"structure": [[1, 0]], "imputation": []}, 2)


def test_decomposition_round_trip(tmp_path):
    import random

    rng = random.Random(7)
    g = random_tree_game(rng)
    t = heuristic_decomposition(g.interaction)
    path = tmp_path / "t.json"
    dump_decomposition(t, path)
    again = load_decomposition(path)
    assert decomposition_to_dict(again) == decomposition_to_dict(t)


def test_lbg_round_trip(tmp_path, l1):
    path = tmp_path / "l.json"
    dump_lbg(l1, path)
    assert load_lbg(path) == l1
    doc = lbg_to_dict(l1)
    assert lbg_from_dict(doc) == l1


def test_lbg_rejections():
    with pytest.raises(DataError):
        lbg_from_dict({"n": 1, "weights": ["0"], "tasks": []})
    with pytest.raises(DataError):
        lbg_from_dict({"n": 1, "weights": ["1"], "tasks": [{"agents": [0], "pi": "1.5"}]})
    with pytest.raises(DataError):
        lbg_from_dict(
            {
                "n": 2,
                "weights": ["1", "1"],
                "tasks": [
                    {"agents": [0, 1], "pi": "1"},
                    {"agents": [1, 0], "pi": "2"},
                ],
            }
        )


def test_missing_file():
    with pytest.raises(DataError):
        load_game("/nonexistent/game.json")


def _with(doc, **fields):
    out = dict(doc)
    out.update(fields)
    return out


def test_list_fields_refuse_other_values():
    """A list-valued field holding a number is a load error, not a crash
    while iterating it."""
    good_outcome = {"structure": [[1, 1], [1, 0]], "imputation": [["2", "2"], ["1", "0"]]}
    good_decomp = {"bags": [[0, 1]], "edges": [], "root": 0}
    good_lbg = {"n": 1, "weights": ["1"], "tasks": [{"agents": [0], "pi": "1"}]}
    cases = [
        (game_from_dict, _with(G1_DOC, coalitions=4)),
        (game_from_dict, _with(G1_DOC, weights=2)),
        (game_from_dict, _with(G1_DOC, graph={"edges": 1})),
        (game_from_dict, _with(G1_DOC, graph={"edges": [0, 1]})),
        (lambda d: outcome_from_dict(d, 2), _with(good_outcome, structure=5)),
        (lambda d: outcome_from_dict(d, 2), _with(good_outcome, imputation=5)),
        (decomposition_from_dict, _with(good_decomp, bags=3)),
        (decomposition_from_dict, _with(good_decomp, edges=3)),
        (lbg_from_dict, _with(good_lbg, weights=3)),
        (lbg_from_dict, _with(good_lbg, tasks=3)),
    ]
    outcome_from_dict(good_outcome, 2)
    decomposition_from_dict(good_decomp)
    lbg_from_dict(good_lbg)
    for load, doc in cases:
        with pytest.raises(DataError):
            load(doc)


def test_integer_fields_refuse_booleans():
    """JSON ``true`` loads as a Python bool, which is an int; no integer
    field takes it for 1."""
    coalition = G1_DOC["coalitions"][0]
    cases = [
        (game_from_dict, _with(G1_DOC, n=True, weights=[2])),
        (game_from_dict, _with(G1_DOC, k=True)),
        (game_from_dict, _with(G1_DOC, weights=[2, True])),
        (game_from_dict, _with(G1_DOC, coalitions=[_with(coalition, support=[False])])),
        (game_from_dict, _with(G1_DOC, coalitions=[_with(coalition, contribution=[True])])),
        (game_from_dict, _with(G1_DOC, graph={"edges": [[0, True]]})),
        (lambda d: outcome_from_dict(d, 2),
         {"structure": [[True, True]], "imputation": [["2", "2"]]}),
        (lambda d: outcome_from_dict(d, 2), {"structure": [[1, False]], "imputation": [["1", "0"]]}),
        (decomposition_from_dict, {"bags": [[0, True]], "edges": [], "root": 0}),
        (decomposition_from_dict, {"bags": [[0], [1]], "edges": [[0, True]], "root": 0}),
        (decomposition_from_dict, {"bags": [[0, 1]], "edges": [], "root": False}),
        (lbg_from_dict, {"n": True, "weights": ["1"], "tasks": []}),
        (lbg_from_dict, {"n": 1, "weights": ["1"], "tasks": [{"agents": [False], "pi": "1"}]}),
    ]
    for load, doc in cases:
        with pytest.raises(DataError):
            load(doc)
