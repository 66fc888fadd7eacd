"""Checks on the engine's source text."""

import ast
from pathlib import Path

import twobridge

SOURCES = sorted(Path(twobridge.__file__).parent.glob("*.py"))


def test_engine_has_no_assert_statements():
    # Invariants raise, so they still hold under ``python -O``, which
    # strips every ``assert``.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
