"""Every module of the package, and every test module, uses each name it
imports, and the package uses each function it defines.

A deletion can leave an import behind that nothing reads any more. This check
parses each module under src/ntorrent_sim/ and each file under tests/,
conftest.py included, with the standard ast module and fails on an imported
name the module never uses. Names used only in string annotations count as
used; the package's __init__.py re-exports its imports and is exempt.

A change can also leave a function behind that only the tests call, as a
second statement of a rule the package applies elsewhere. So every function
and non-dunder method defined under src/ntorrent_sim/ must be referenced by
name somewhere in the package, be exported by __init__.py, or be a target of
the benchmark's per-layer tracer (perfbench/tracer.py).
"""
import ast
from pathlib import Path

import pytest
from test_tracer_targets import tracer

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ntorrent_sim"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(path.name for path in TESTS.glob("*.py"))

# (module, qualified name) -> why it stays though nothing in the package uses it
UNREFERENCED = {
    # overrides that refuse the API NamedTuple would otherwise give a packet
    ("names", "_Packet._make"): "refuses NamedTuple._make",
    ("names", "_Packet._replace"): "refuses NamedTuple._replace",
    # ROADMAP item 3: `sim check` reads a written trace back with these, or
    # they move into the tests
    ("trace", "read_trace_csv"): "ROADMAP item 3, sim check",
    ("trace", "detail_fields"): "ROADMAP item 3, sim check",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; __future__ imports are directives."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_name_it_imports(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_annotation_only_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from enum import Enum\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .world import World\n"
        "    from .app import PeerApp\n"
        "def f(out: World) -> None:\n"
        "    app: 'PeerApp | None' = None\n"
    )
    assert unused_imports(source) == ["os (line 2)", "Enum (line 3)"]


def definitions(tree: ast.Module):
    """(qualified name, line) of each function and method, nested ones too;
    dunder methods are called by Python itself and are left out."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{prefix}{name}", child.lineno
                yield from walk(child, f"{prefix}{name}.<locals>.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name read or bound as a Name, and every attribute name."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreferenced_definitions(sources: dict[str, str], exported: set[str],
                             kept: set[tuple[str, str]]) -> list[str]:
    """module.qualname of each definition in sources ({module: text}) whose
    name no module references, unless exported or kept."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    return [f"{module}.{qualname} (line {line})"
            for module, tree in trees.items()
            for qualname, line in definitions(tree)
            if qualname.rsplit(".", 1)[-1] not in referenced | exported
            and (module, qualname) not in kept]


def package_exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return set(imported_names(tree))


def test_package_uses_every_function_it_defines():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    kept = set(UNREFERENCED) | {(module, qualname) for _, module, qualname in tracer.TARGETS}
    assert unreferenced_definitions(sources, package_exports(), kept) == []
    # an entry outliving its definition would hide a later one of that name
    defined = {(module, qualname) for module, text in sources.items()
               for qualname, _ in definitions(ast.parse(text))}
    assert set(UNREFERENCED) <= defined


def test_the_check_sees_functions_nothing_references():
    sources = {
        "a": (
            "class Table:\n"
            "    def __init__(self):\n"
            "        self.rows = []\n"
            "    def used(self):\n"
            "        def helper():\n"
            "            pass\n"
            "        return helper()\n"
            "    def unused(self):\n"
            "        pass\n"
            "def exported():\n"
            "    pass\n"
            "def kept():\n"
            "    pass\n"
            "def orphan():\n"
            "    pass\n"
        ),
        "b": "from .a import Table\nTable().used()\n",
    }
    assert unreferenced_definitions(sources, {"exported"}, {("a", "kept")}) == [
        "a.Table.unused (line 8)", "a.orphan (line 14)"]
