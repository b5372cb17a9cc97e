"""Source hygiene of the package: no module imports a name it never uses,
every import sits at module level (a function-level import can hide an import
cycle), and the modules import each other without a cycle.

Stdlib only.  `__init__.py` is exempt from the unused-name scan: its imports
are the public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realmod"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(path)\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "sep")]


def _function_level_imports(tree: ast.Module) -> list:
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def _package_imports(tree: ast.Module) -> set:
    """Sibling modules a module imports relatively (`from .x import ...`)."""
    return {node.module.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def _cycle(graph: dict) -> list:
    """Some cycle of the directed graph as a list of nodes, or []."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return []

    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return []


def test_no_module_imports_inside_a_function():
    inner = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inner += [f"{path.name}:{line}" for line in _function_level_imports(tree)]
    assert inner == []


def test_the_package_import_graph_has_no_cycle():
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            graph[path.stem] = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert graph["equivalence"] >= {"hermitian", "modules"}
    assert _cycle(graph) == []


def test_the_scans_see_an_inner_import_and_a_cycle():
    tree = ast.parse("import os\ndef f():\n    from .b import g\n    return lambda: __import__('x')\n"
                     "class C:\n    def m(self):\n        import json\n")
    assert _function_level_imports(tree) == [3, 7]
    assert _package_imports(tree) == {"b"}
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []
