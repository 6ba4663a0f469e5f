"""The package's modules form layers: every intra-package import sits at the
top of its module, and the modules import each other without a cycle. No
module of the package or of the tests imports a name it never reads, and no
function of the package defines a closure that refers to itself."""

import ast
from pathlib import Path

import levelrank

PACKAGE = Path(levelrank.__file__).parent
TESTS = Path(__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
        for fn in ast.walk(tree) if isinstance(fn, _FUNCTIONS)
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


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import of the module that no expression reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    """The package's ``__init__`` is exempt: its imports are re-exports."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    unread = {
        f"{path.parent.name}/{path.name}": names
        for path in paths if (names := _unread_imports(ast.parse(path.read_text())))
    }
    assert unread == {}


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\nfrom math import comb, gcd\n"
                     "os.path.join(comb)\n")
    assert _unread_imports(tree) == ["gcd", "system"]


def _self_recursive_closures(tree: ast.Module) -> list[str]:
    """``outer.inner: line`` for every function nested in another whose
    body names itself. Such a closure holds a cell that refers back to the
    closure, a reference cycle that only the cyclic garbage collector
    frees, once per call of the enclosing function."""
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, _FUNCTIONS) and any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for stmt in inner.body for node in ast.walk(stmt)):
                found.add(f"{outer.name}.{inner.name}: line {inner.lineno}")
    return sorted(found)


def test_no_closure_refers_to_itself():
    found = {name: closures for name, tree in _trees().items()
             if (closures := _self_recursive_closures(tree))}
    assert found == {}


def test_a_self_recursive_closure_is_found():
    tree = ast.parse("def outer(n):\n"
                     "    def walk(k):\n"
                     "        return walk(k - 1) if k else 0\n"
                     "    def once(k):\n"
                     "        return k\n"
                     "    return walk(n) + once(n)\n"
                     "def top(k):\n"
                     "    return top(k - 1) if k else 0\n")
    assert _self_recursive_closures(tree) == ["outer.walk: line 2"]
