"""File formats: games, outcomes, tree decompositions, LBG instances.

All files are UTF-8 JSON with 0-based agent indices and canonical "p/q"
rationals (reduced, denominator omitted when 1, sign on the numerator).
Loads are strict: malformed documents raise :class:`DataError` with a
location, and negative characteristic values are rejected outright.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import (
    Coalition,
    ContractViolation,
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
)
from .lbg import LbgInstance, make_lbg_instance
from .rationals import RationalFormatError, format_rational, parse_rational
from .treewidth import TreeDecomposition


class DataError(ValueError):
    """A document failed structural validation at load time."""


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc


def _dump_json(doc: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DataError(message)


def _rational(value: Any, where: str) -> Fraction:
    try:
        return parse_rational(value)
    except RationalFormatError as exc:
        raise DataError(f"{where}: {exc}") from exc


def game_from_dict(doc: Any) -> GameDef:
    _expect(isinstance(doc, dict), "game document must be an object")
    for key in ("n", "weights", "k", "coalitions"):
        _expect(key in doc, f"game document missing {key!r}")
    n = doc["n"]
    _expect(isinstance(n, int) and n >= 1, "n must be a positive integer")
    weights = doc["weights"]
    _expect(
        isinstance(weights, list) and len(weights) == n
        and all(isinstance(w, int) and w >= 1 for w in weights),
        "weights must be n positive integers",
    )
    k = doc["k"]
    _expect(isinstance(k, int) and k >= 1, "k must be a positive integer")
    entries = []
    for idx, row in enumerate(doc["coalitions"]):
        where = f"coalitions[{idx}]"
        _expect(isinstance(row, dict), f"{where} must be an object")
        sup = row.get("support")
        contrib = row.get("contribution")
        _expect(isinstance(sup, list) and isinstance(contrib, list), f"{where}: support/contribution must be lists")
        _expect(sup == sorted(set(sup)), f"{where}: support must be sorted ascending, no duplicates")
        _expect(len(sup) == len(contrib), f"{where}: contribution must parallel support")
        _expect(all(isinstance(i, int) and 0 <= i < n for i in sup), f"{where}: support out of range")
        _expect(len(sup) <= k, f"{where}: support wider than k")
        for i, w in zip(sup, contrib):
            _expect(isinstance(w, int) and 1 <= w <= weights[i], f"{where}: contribution out of range for agent {i}")
        value = _rational(row.get("value"), f"{where}.value")
        _expect(value >= 0, f"{where}: negative value rejected")
        entries.append((tuple(sup), tuple(contrib), value))
    graph = None
    if doc.get("graph") is not None:
        gdoc = doc["graph"]
        _expect(isinstance(gdoc, dict) and "edges" in gdoc, "graph must be an object with edges")
        try:
            graph = InteractionGraph.from_pairs(n, gdoc["edges"])
        except ContractViolation as exc:
            raise DataError(f"graph: {exc}") from exc
    try:
        cf = make_charfun(n, k, entries)
        return GameDef(n=n, weights=tuple(weights), charfun=cf, interaction=graph)
    except ContractViolation as exc:
        raise DataError(str(exc)) from exc


def load_game(path: str | Path) -> GameDef:
    return game_from_dict(_load_json(path))


def game_to_dict(g: GameDef) -> dict:
    rows = []
    for sup, table in sorted(g.charfun.entries.items()):
        for contrib, value in sorted(table.items()):
            rows.append(
                {
                    "support": list(sup),
                    "contribution": list(contrib),
                    "value": format_rational(value),
                }
            )
    doc: dict = {
        "n": g.n,
        "weights": list(g.weights),
        "k": g.charfun.k,
        "coalitions": rows,
    }
    if g.interaction is not None:
        doc["graph"] = {"edges": [list(e) for e in g.interaction.simple_edges()]}
    return doc


def dump_game(g: GameDef, path: str | Path) -> None:
    _dump_json(game_to_dict(g), path)


def outcome_from_dict(doc: Any, n: int) -> Outcome:
    structure = structure_from_dict(doc, n)
    imputation: list = []
    _expect("imputation" in doc, "outcome needs an imputation")
    rows = doc["imputation"]
    _expect(isinstance(rows, list) and len(rows) == len(structure), "imputation must parallel the structure")
    for idx, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == n, f"imputation[{idx}] must have {n} entries")
        imputation.append(tuple(_rational(v, f"imputation[{idx}][{j}]") for j, v in enumerate(row)))
    return Outcome(structure=structure, imputation=tuple(imputation))


def load_outcome(path: str | Path, n: int) -> Outcome:
    return outcome_from_dict(_load_json(path), n)


def structure_from_dict(doc: Any, n: int) -> tuple[Coalition, ...]:
    """Structure-only read of an outcome document (imputation optional)."""
    _expect(isinstance(doc, dict) and "structure" in doc, "document needs a structure")
    out = []
    for idx, row in enumerate(doc["structure"]):
        _expect(
            isinstance(row, list) and len(row) == n
            and all(isinstance(w, int) and w >= 0 for w in row),
            f"structure[{idx}] must be {n} non-negative integers",
        )
        out.append(tuple(row))
    return tuple(out)


def outcome_to_dict(o: Outcome) -> dict:
    return {
        "structure": [list(c) for c in o.structure],
        "imputation": [[format_rational(v) for v in x] for x in o.imputation],
    }


def dump_outcome(o: Outcome, path: str | Path) -> None:
    _dump_json(outcome_to_dict(o), path)


def decomposition_from_dict(doc: Any) -> TreeDecomposition:
    _expect(isinstance(doc, dict), "decomposition must be an object")
    for key in ("bags", "edges", "root"):
        _expect(key in doc, f"decomposition missing {key!r}")
    bags = []
    for idx, bag in enumerate(doc["bags"]):
        _expect(isinstance(bag, list) and all(isinstance(i, int) and i >= 0 for i in bag), f"bags[{idx}] must be a list of agent indices")
        bags.append(frozenset(bag))
    edges = []
    for idx, e in enumerate(doc["edges"]):
        _expect(isinstance(e, list) and len(e) == 2 and all(isinstance(i, int) for i in e), f"edges[{idx}] must be a pair")
        edges.append((e[0], e[1]))
    root = doc["root"]
    _expect(isinstance(root, int), "root must be an integer")
    return TreeDecomposition(bags=tuple(bags), edges=tuple(edges), root=root)


def load_decomposition(path: str | Path) -> TreeDecomposition:
    return decomposition_from_dict(_load_json(path))


def decomposition_to_dict(t: TreeDecomposition) -> dict:
    return {
        "bags": [sorted(b) for b in t.bags],
        "edges": [list(e) for e in t.edges],
        "root": t.root,
    }


def dump_decomposition(t: TreeDecomposition, path: str | Path) -> None:
    _dump_json(decomposition_to_dict(t), path)


def lbg_from_dict(doc: Any) -> LbgInstance:
    _expect(isinstance(doc, dict), "LBG document must be an object")
    for key in ("n", "weights", "tasks"):
        _expect(key in doc, f"LBG document missing {key!r}")
    n = doc["n"]
    _expect(isinstance(n, int) and n >= 1, "n must be a positive integer")
    weights = [_rational(w, f"weights[{i}]") for i, w in enumerate(doc["weights"])]
    tasks = []
    for idx, row in enumerate(doc["tasks"]):
        where = f"tasks[{idx}]"
        _expect(isinstance(row, dict) and "agents" in row and "pi" in row, f"{where} needs agents and pi")
        agents = row["agents"]
        _expect(isinstance(agents, list) and all(isinstance(i, int) for i in agents), f"{where}: agents must be a list of indices")
        tasks.append((frozenset(agents), _rational(row["pi"], f"{where}.pi")))
    try:
        return make_lbg_instance(n, weights, tasks)
    except ContractViolation as exc:
        raise DataError(str(exc)) from exc


def load_lbg(path: str | Path) -> LbgInstance:
    return lbg_from_dict(_load_json(path))


def lbg_to_dict(inst: LbgInstance) -> dict:
    return {
        "n": inst.n,
        "weights": [format_rational(w) for w in inst.weights],
        "tasks": [
            {"agents": sorted(t.agents), "pi": format_rational(t.pi)}
            for t in inst.tasks
        ],
    }


def dump_lbg(inst: LbgInstance, path: str | Path) -> None:
    _dump_json(lbg_to_dict(inst), path)
