"""Checks on the library source itself."""

import ast
from pathlib import Path

import padic_sylvester

SOURCES = sorted(Path(padic_sylvester.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "valuation.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
