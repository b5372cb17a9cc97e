"""Source hygiene of the package: no module imports a name it never uses,
every import sits at module level (a function-level import can hide an import
cycle), the modules import each other without a cycle, no module uses a bare
`assert` (`python -O` strips it, so no verdict may rest on one), every
class with a `check` runs it in `__post_init__`, the one place a `.check()`
call may appear (an object that exists has passed its laws, so no caller
checks it again), the package's `__all__` lists exactly the names its
`__init__.py` imports, each of which README's example or the bench reads from
the package root, and every stanza kind the input format declares has exactly
one builder in the command line's table.

Stdlib only.  `__init__.py` is exempt from the unused-name scan: its imports
are the public re-exports.
"""

import ast
import re
from pathlib import Path

import realmod
from realmod import cli, specfile

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "realmod"


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


def _asserts(tree: ast.Module) -> list:
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_module_uses_a_bare_assert():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _asserts(tree)]
    assert found == []


def test_the_scan_sees_an_assert():
    tree = ast.parse("assert x\ndef f(y):\n    assert y, 'message'\n    return 'assert'\n"
                     "class C:\n    def m(self):\n        raise AssertionError\n")
    assert _asserts(tree) == [1, 3]


def _is_check_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check")


def _check_sites(tree: ast.Module) -> tuple:
    """(names of the classes that define `check`, those among them whose
    `__post_init__` does not call `self.check()`, lines of every other
    `.check()` call)."""
    checked, unchecked, allowed = [], [], set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        if "check" not in methods:
            continue
        checked.append(cls.name)
        post = methods.get("__post_init__")
        calls = {node for node in ast.walk(post) if _is_check_call(node)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"} if post else set()
        if not calls:
            unchecked.append(cls.name)
        allowed |= calls
    stray = sorted(node.lineno for node in ast.walk(tree) if _is_check_call(node) and node not in allowed)
    return checked, unchecked, stray


def test_every_checked_type_checks_itself_at_construction_and_only_there():
    checked, unchecked, stray = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        found = _check_sites(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        checked += found[0]
        unchecked += [f"{path.name}: {name}" for name in found[1]]
        stray += [f"{path.name}:{line}" for line in found[2]]
    assert len(checked) == 10
    assert unchecked == []
    assert stray == []


def test_the_scan_sees_an_unchecked_type_and_a_stray_check():
    tree = ast.parse(
        "class A:\n    def __post_init__(self):\n        self.check()\n    def check(self):\n        pass\n"
        "class B:\n    def check(self):\n        self.check()\n"
        "class C:\n    def __post_init__(self):\n        self.other.check()\n    def check(self):\n        pass\n"
        "def f(x):\n    x.check()\n    _check(x)\n    run(x, check=True)\n")
    assert _check_sites(tree) == (["A", "B", "C"], ["B", "C"], [8, 11, 15])


def _reexports(tree: ast.Module) -> list:
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_the_package_exports_exactly_the_names_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(realmod.__all__) == _reexports(tree)


def test_the_scan_sees_every_reexport():
    tree = ast.parse("from .a import b, c as d\nimport os\ndef f():\n    from .e import g\n")
    assert _reexports(tree) == ["b", "d"]


def _readme_imports(text: str) -> set:
    """The names README's `python` blocks import from the package root."""
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    return {alias.name for block in blocks for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "realmod"
            for alias in node.names}


def _root_reads(text: str) -> set:
    """The names a bench file reads off the package root, bound as `realmod`
    or `rm`; a probe script held in a string counts too."""
    return set(re.findall(r"\b(?:realmod|rm)\.(\w+)", text))


def test_every_export_has_a_reader():
    readers = _readme_imports((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        readers |= _root_reads(path.read_text(encoding="utf-8"))
    assert sorted(set(realmod.__all__) - readers) == []


def test_the_scans_see_a_readme_import_and_a_root_read():
    text = ("```python\nfrom realmod import a, b as c\nfrom realmod.x import d\nimport realmod\n```\n"
            "```sh\nfrom realmod import e\n```\n")
    assert _readme_imports(text) == {"a", "b"}
    assert _root_reads("rm = self.realmod\nrm.f(realmod.g)\n'realmod.h'\nfarm.i\n") == {"f", "g", "h"}


def test_every_stanza_kind_has_one_builder():
    # a kind with no builder would raise a KeyError from `_Build.stanza`
    assert set(cli._BUILD) == set(specfile._SCHEMA)
    assert set(specfile.SPACE_KINDS) <= set(specfile._SCHEMA)
