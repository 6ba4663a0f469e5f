"""The package's modules form layers: every intra-package import sits at the
top of its module, and the modules import each other without a cycle."""

import ast
from pathlib import Path

import levelrank

PACKAGE = Path(levelrank.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node: ast.ImportFrom) -> set[str]:
    """The package modules named by a relative import: ``from .x import y``
    names x, ``from . import x, y`` names x and y."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def test_no_function_imports_from_the_package():
    local = [
        f"{name}.{fn.name}: line {node.lineno}"
        for name, tree in _trees().items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert local == []


def test_the_module_graph_is_acyclic():
    """Every relative import counts as an edge, one inside a function too,
    so a cycle cannot hide behind a deferred import."""
    trees = _trees()
    graph = {
        name: {dep for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for dep in _imported_modules(node)} - {name}
        for name, tree in trees.items() if name != "__init__"
    }
    assert all(dep in trees for deps in graph.values() for dep in deps), graph
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, " -> ".join(path + (name,))
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + (name,))
            done.add(name)

    for name in sorted(graph):
        visit(name, ())
