"""Every module of the package, and every test module, uses each name it imports.

A deletion can leave an import behind that nothing reads any more. This check
parses each module under src/ntorrent_sim/ and each file under tests/,
conftest.py included, with the standard ast module and fails on an imported
name the module never uses. Names used only in string annotations count as
used; the package's __init__.py re-exports its imports and is exempt.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ntorrent_sim"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(path.name for path in TESTS.glob("*.py"))


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
