"""Checks on the package source itself."""

import ast
from pathlib import Path

import ordist

SRC = Path(ordist.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every mathematical check in
    # the package must be an explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
