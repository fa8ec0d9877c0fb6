"""The package's module-level imports form no cycle.

A cycle forces one side to import the other late (at the end of the module
or inside a function), and then a name's availability depends on which
module happened to load first.  Imports inside functions are deliberate
late binding and are not counted.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocf"


def _module_level_imports(tree: ast.Module):
    """Import statements outside any function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _import_graph() -> dict[str, set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph: dict[str, set[str]] = {m: set() for m in modules}
    for m in modules:
        tree = ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8"))
        for node in _module_level_imports(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is not None:
                graph[m].add(node.module.split(".")[0])
            else:  # from . import name: a submodule, or a name of the package
                for alias in node.names:
                    graph[m].add(alias.name if alias.name in modules else "__init__")
    return graph


def test_module_imports_are_acyclic():
    graph = _import_graph()
    assert {"tree", "treewidth", "oracle"} <= set(graph)
    assert "treewidth" in graph["tree"]
    assert "oracle" not in graph["treewidth"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
