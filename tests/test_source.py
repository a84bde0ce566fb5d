"""Checks on the package source itself."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import ordist

SRC = Path(ordist.__file__).parent
ROOT = SRC.parent.parent

# public names that nothing in src/, scripts/ or perfbench/ reads, kept
# as the paper's results; the tests exercise each one
UNREAD_ALLOWED = {
    # H^q of a cyclic module against its dimension shift: the
    # two-periodicity cross-check of the Tate cohomology
    "dimension_shift",
    # the Tor/H^2 identity of the synthetic Sylow frames
    "verify_tor_h2",
    # the vanishing H^p/H^q spot check of the synthetic Sylow frames
    "hpq_spot_check",
    # the parity theorem: the torsion of Z[Gamma_n]/S~(n)
    "gal_h_quotient_torsion",
}


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every mathematical check in
    # the package must be an explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_memoises_one_way():
    # a result kept on an object is a functools.cached_property or a
    # functools.cache, never a slot written past _Frozen and read back
    # through the instance __dict__
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and node.attr == "__setattr__" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "object":
                found.append(f"{path.name}:{node.lineno} object.__setattr__")
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "__dict__":
                found.append(f"{path.name}:{node.lineno} __dict__[...]")
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


def _root(node: ast.expr) -> str | None:
    """The name at the root of a dotted expression such as ordist.cli."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _reads(path: Path) -> set[str]:
    """The module-level names that the module at path reads: a name
    load, a name it imports, or an attribute of a package or module
    (ordist.make_field).  An attribute of anything else reads a method
    or field, even where it shares the name of a module-level function
    (K.splitting_type); strings, such as the export table of the
    package root, are not reads."""
    tree = ast.parse(path.read_text())
    stems = {p.stem for p in SRC.glob("*.py")}
    modules, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0]
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
            modules.update(a.asname or a.name for a in node.names
                           if a.name in stems)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and _root(node.value) in modules:
            read.add(node.attr)
    return read


def _readers() -> list[Path]:
    """Library code, scripts and the benchmark."""
    return [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def test_every_public_name_has_a_reader():
    # a public function or class of the package, or an export, that no
    # library code, script or benchmark reads is API nothing needs: it
    # leaves src/, or moves to the tests if a test uses it as a reference
    defined = {node.name
               for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    public = defined | {name for names in ordist._EXPORTS.values()
                        for name in names}
    read = set().union(*map(_reads, _readers()))
    assert sorted(public - read - UNREAD_ALLOWED) == []
    # an entry that gained a reader, or whose name left, leaves the list
    assert sorted(UNREAD_ALLOWED - (public - read)) == []


def test_every_public_method_has_a_reader():
    # the same for the public methods and properties of the package's
    # classes: one counts as read when an attribute load of its name
    # appears in library code, a script or the benchmark, so a name that
    # several classes share counts for all of them
    methods = {f"{cls.name}.{node.name}": node.name
               for path in SRC.glob("*.py")
               for cls in ast.parse(path.read_text()).body
               if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    loaded = {node.attr
              for path in _readers()
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    assert len(methods) > 50
    assert sorted(m for m, name in methods.items() if name not in loaded) \
        == []


def test_every_third_party_import_is_a_dependency():
    # the package runs on what pyproject.toml declares: an import that
    # is neither the standard library nor the package itself must be
    # listed in the project dependencies
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                .replace("-", "_") for dep in project["dependencies"]}
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"ordist"}
    assert sorted(third_party - declared) == []
