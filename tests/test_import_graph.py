"""The package's module-level imports form no cycle.

A cycle forces one side to import the other late (at the end of the module
or inside a function), and then a name's availability depends on which
module happened to load first.  Imports inside functions are deliberate
late binding and are not counted.
"""

import ast
import sys
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


def _intra_package_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level >= 1]


def test_covers_is_a_leaf_and_core_imports_at_module_level():
    """``core`` builds each game's solo covers on ``covers``, so ``covers``
    imports nothing from the package, and ``core`` needs no late import."""
    covers = ast.parse((PACKAGE / "covers.py").read_text(encoding="utf-8"))
    assert _intra_package_imports(covers) == []
    core = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    every = {n for n in ast.walk(core) if isinstance(n, (ast.Import, ast.ImportFrom))}
    assert every == set(_module_level_imports(core))
    assert "covers" in _import_graph()["core"]


def test_the_package_imports_the_standard_library_alone():
    """Every import in the package, at module level or inside a function,
    is relative or names a module of the standard library: the package
    depends on no third-party module, whatever happens to be installed."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
