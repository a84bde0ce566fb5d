"""Smoke tests of the survey scripts, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import ordist

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(ordist.__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [x for x in [env.get("PYTHONPATH")] if x])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], env=env,
        capture_output=True, text=True, timeout=300)


def test_torsion_survey_runs():
    r = run_script("torsion_survey.py", "-d", "7", "--norm-bound", "12",
                   "--max-primes", "2")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert any(ln.startswith("Q(sqrt(-7))") for ln in lines)
    # the pair level: 39 generators, 10 relations, rank 30, no torsion
    (pair,) = [ln.split() for ln in lines if ln.startswith("q:7,p:11:0")]
    assert pair[1:4] == ["39", "10", "30"]


def test_certificate_hunt_verifies():
    r = run_script("certificate_hunt.py", "--max-d", "7", "--norm-bound",
                   "25", "--per-field", "1")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert any(ln.startswith("d=7") and "nu=165" in ln and "VERIFIED" in ln
               for ln in lines)
    assert "2 certificate(s) verified" in lines
