"""Only engine.py derives RNG streams.

Each node record declares the streams it draws as engine.stream attributes,
which call derive_stream on their first read. This check parses each module
under src/ntorrent_sim/ with the standard ast module and fails on any other
module that names derive_stream: a call, an attribute read or an import.
"""
import ast

import pytest
from test_imports import PACKAGE

MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "engine.py")


def derive_stream_uses(source: str) -> list[int]:
    """Lines that name derive_stream."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "derive_stream":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "derive_stream":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom | ast.Import):
            if any(alias.name == "derive_stream" for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_the_engine_derives_a_stream(module):
    assert derive_stream_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_sees_calls_attribute_reads_and_imports():
    source = (
        "from .engine import derive_stream as d\n"
        "from . import engine\n"
        "rng = engine.derive_stream(1, 'app', 'n0')\n"
        "other = derive_stream\n"
    )
    assert derive_stream_uses(source) == [1, 3, 4]
