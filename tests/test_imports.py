"""What the package and its cheap commands load.

A field, its primes and ideals, `ordist field`, `ordist search` and every
cache hit need only the standard library, the package root, cli and
quadfield; the computing layers load when a command computes, and no
command and no library call loads numpy.  No command loads dataclasses
or inspect, and only a call with a cache directory loads hashlib or
pathlib.  Each footprint is read in a child interpreter, since this one
has imported everything long ago.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ordist
import ordist.cli as cli

SRC = str(Path(ordist.__file__).resolve().parents[1])
HEAVY = ("numpy", "ordist.zlinalg", "ordist.distribution",
         "ordist.cohomology")

# the public names of the package before its exports became lazy, by
# defining module at that time; hnf, hnf_basis, ab_discover (the class
# group labels its forms as the other groups label their elements),
# solve_left (each coordinate comes from the elimination that found its
# lattice), the group-ring p_star, transfer and TraceIdeal, and the
# quadfield splitting_type (the method K.splitting_type stays) were
# dropped since
OLD_EXPORTS = {
    "zlinalg": (
        "AbGroup", "AbHom", "GeneratorsInsufficient", "IntMatrix",
        "LinalgError", "NotSubLattice", "OrdistError", "ab_discover",
        "cokernel", "hnf", "hnf_basis", "rational_kernel",
        "smith_coordinates", "snf_invariants", "solve_left",
        "subquotient_torsion",
    ),
    "quadfield": (
        "FieldMismatch", "Modulus", "ModulusTooLarge", "NotPrime",
        "NotSquarefree", "OIdeal", "QuadField", "make_field",
        "residue_units", "splitting_type",
    ),
    "rayclass": (
        "FrameUnavailable", "GaloisOverH", "NotCoprime", "NotDivisor",
        "PrimeNotInModulus", "RayClassGroup", "Subgroup", "galois_over_h",
        "ray_class_group",
    ),
    "groupring": (
        "GroupRingElt", "NotCoprimeToW", "TraceIdeal", "alpha",
        "gal_h_quotient", "gal_h_quotient_torsion", "p_star", "trace",
        "trace_ideal", "trace_ideal_quotient", "transfer",
    ),
    "cohomology": (
        "CyclicModule", "NotCyclic", "SylowFrameSynthetic",
        "build_lambda_quotients", "dimension_shift", "hpq_spot_check",
        "sweep_torsion_law", "tate_cyclic", "twisted_trace_torsion",
        "verify_tor_h2",
    ),
    "distribution": (
        "DeltaPresentation", "HypothesisFailed", "OracleMismatch",
        "TorsionCertificate", "WrongShape", "build_presentation",
        "level_torsion", "nu", "search_torsex", "torsex_certificate",
        "torsion_bound",
    ),
}
DROPPED = {"hnf", "hnf_basis", "ab_discover", "solve_left", "p_star",
           "transfer", "TraceIdeal", "splitting_type"}
MOVED = {"residue_units": "rayclass", "HypothesisFailed": "quadfield",
         "search_torsex": "quadfield"}


def _child(code: str, *options: str) -> tuple[set[str], str]:
    """Run code in a child interpreter started with options: the modules
    it left in sys.modules, and its stderr."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    r = subprocess.run([sys.executable, *options, "-c", probe], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1])), r.stderr


def _footprint(code: str) -> dict:
    """The HEAVY modules that code loads in a child, and its stderr."""
    loaded, err = _child(code)
    return {"heavy": [m for m in HEAVY if m in loaded], "err": err}


def _added(code: str) -> set[str]:
    """What code loads in a child beyond a bare interpreter, whose site
    hooks may preload modules of their own."""
    return _child(code)[0] - _child("pass")[0]


def _main(*argv) -> str:
    return ("import ordist.cli\n"
            f"assert ordist.cli.main({list(argv)!r}) == 0\n")


def test_field_command_loads_no_numpy():
    assert _footprint(_main("field", "-d", "7"))["heavy"] == []


def test_search_command_loads_no_numpy():
    run = _footprint(_main("search", "-d", "15", "-B", "80", "--no-cache"))
    assert run["heavy"] == []


@pytest.mark.parametrize("argv", [
    ("certify", "-d", "7", "-p", "7", "-p", "11", "-p", "23", "--no-cache"),
    ("rayclass", "-d", "7", "-m", "p:11:0,p:23:0", "--no-cache"),
    ("toralg-sweep", "--no-cache"),
], ids=lambda argv: argv[0])
def test_computing_commands_load_no_numpy(argv):
    assert "numpy" not in _footprint(_main(*argv))["heavy"]


def test_torsion_cache_miss_loads_no_numpy(tmp_path):
    argv = ["torsion", "-d", "7", "-m", "p:7,p:11:0,p:23:0", "--cache-dir",
            str(tmp_path)]
    run = _footprint(_main(*argv, "-v"))
    assert "building presentation" in run["err"]
    assert "ordist.distribution" in run["heavy"]
    assert "numpy" not in run["heavy"]


def test_survey_calls_load_no_numpy():
    # the calls of scripts/torsion_survey.py, in process
    run = _footprint(
        "from ordist import (Modulus, build_presentation, level_torsion,\n"
        "                    make_field, torsion_bound)\n"
        "K = make_field(19)\n"
        "m = Modulus(K, tuple((K.splitting_type(q)[1][0], 1)\n"
        "                     for q in (5, 7, 17)))\n"
        "P = build_presentation(K, m)\n"
        "assert level_torsion(P).invariant_factors == (2,)\n"
        "torsion_bound(P)\n")
    assert "ordist.distribution" in run["heavy"]
    assert "numpy" not in run["heavy"]


def test_hypothesis_failure_is_one_class():
    # distribution raises the class that quadfield defines, so one
    # except clause catches the failures of both, with exit code 2
    import ordist.distribution as distribution
    import ordist.quadfield as quadfield
    assert distribution.HypothesisFailed is quadfield.HypothesisFailed
    assert quadfield.HypothesisFailed.exit_code == 2


def test_make_field_loads_no_numpy():
    run = _footprint("import ordist.cli\n"
                     "from ordist.quadfield import make_field\n"
                     "K = make_field(7)\n"
                     "K.splitting_type(11)[1][0].multiply(K.unit_ideal())\n")
    assert run["heavy"] == []


def test_torsion_cache_hit_loads_no_numpy(tmp_path, capsys):
    argv = ["torsion", "-d", "7", "-m", "p:11", "--cache-dir",
            str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    run = _footprint(_main(*argv, "-v"))
    assert "cache hit" in run["err"]
    assert run["heavy"] == []


def test_package_exports_resolve_lazily():
    names = {n for group in OLD_EXPORTS.values() for n in group}
    listed = set(dir(ordist))
    assert names - DROPPED <= listed
    assert not DROPPED & listed
    for home, group in OLD_EXPORTS.items():
        for name in set(group) - DROPPED:
            module = import_module(f"ordist.{MOVED.get(name, home)}")
            assert getattr(ordist, name) is getattr(module, name)
    from ordist import OrdistError, build_presentation  # noqa: F401
    for name in DROPPED | {"no_such_name"}:
        with pytest.raises(AttributeError):
            getattr(ordist, name)


# the calls of the commands, with their cache directory (if any) last
START_UP_CALLS = {
    "field": ("field", "-d", "7", "--no-cache"),
    "search": ("search", "-d", "15", "-B", "80", "--no-cache"),
    "torsion-hit": ("torsion", "-d", "7", "-m", "p:11", "--cache-dir"),
    "torsion": ("torsion", "-d", "7", "-m", "p:7,p:11:0,p:23:0",
                "--no-cache"),
    "certify": ("certify", "-d", "7", "-p", "7", "-p", "11", "-p", "23",
                "--no-cache"),
    "toralg-sweep": ("toralg-sweep", "--no-cache"),
}


@pytest.mark.parametrize("name", list(START_UP_CALLS))
def test_commands_load_no_dataclasses_and_hash_only_with_a_cache(
        name, tmp_path, capsys):
    argv = list(START_UP_CALLS[name])
    if argv[-1] == "--cache-dir":
        argv.append(str(tmp_path))
        assert cli.main(argv) == 0  # fill the cache: the child hits it
        capsys.readouterr()
    added = _added(_main(*argv))
    assert "ordist.cli" in added
    assert not {"dataclasses", "inspect"} & added
    assert ("hashlib" in added) == ("--no-cache" not in argv)


@pytest.mark.parametrize("name", ["field", "torsion"])
def test_no_cache_calls_load_no_pathlib(name):
    # python -S: the site hook of an installation may preload pathlib
    loaded, _ = _child(_main(*START_UP_CALLS[name]), "-S")
    assert "ordist.cli" in loaded
    assert "pathlib" not in loaded
