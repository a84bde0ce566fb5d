"""Checks on the package source itself."""

import ast
import importlib
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


def test_mutant_patches_still_apply(monkeypatch):
    # scripts/mutants.py patches each old text once; a source edit that
    # moves one must update the mutant list with it
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "scripts"))
    mutants = importlib.import_module("mutants")
    assert len(mutants.MUTANTS) >= 5
    for m in mutants.MUTANTS:
        assert (SRC / m.module).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
