"""Golden CLI reports and the headline presentation.

Each golden report is the exact JSON text that `ordist` prints, minus
its `timing_ms` line.  The headline `torsion` run also pins the
presentation it builds by sha256 (in `sha256sum` format): of the repr of
the relation matrix's (cols, indptr, indices, data) and of the repr of
the rows of its heads.  It counts the trace-ideal quotients it builds.

After an intended change of a report, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
from pathlib import Path

import pytest

import ordist.cli as cli
import ordist.distribution as dist

GOLDEN = Path(__file__).parent / "golden"

REPORTS = {
    "field": ["field", "-d", "7"],
    "rayclass": ["rayclass", "-d", "15", "-m", "p:19,p:31"],
    "torsion_pair": ["torsion", "-d", "15", "-m", "p:19,p:31"],
    "certify": ["certify", "-d", "7", "-p", "7", "-p", "11", "-p", "23"],
    "search": ["search", "-d", "7", "-B", "25"],
    "toralg_sweep": ["toralg-sweep"],
}
HEADLINE = ["torsion", "-d", "7", "-m", "p:7,p:11:0,p:23:0"]
HEADLINE_REPORT = "torsion_headline"
PRESENTATION_SUMS = "torsion_headline_presentation.sha256"

_TIMING = re.compile(r',\n  "timing_ms": \d+\n')


def run_cli(argv) -> bytes:
    """Standard output of one in-process `ordist` call with no cache,
    without its timing line."""
    saved = os.environ.pop("ORDIST_CACHE", None)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        if saved is not None:
            os.environ["ORDIST_CACHE"] = saved
    if code != 0:
        raise RuntimeError(f"ordist {' '.join(argv)} exited {code}")
    text, n = _TIMING.subn("\n", out.getvalue())
    if n != 1:
        raise RuntimeError("report has no timing line")
    return text.encode()


def presentation_sums(P) -> bytes:
    """sha256sum lines of the relation matrix and the heads of P."""
    R = P.relations
    parts = (("relations", (R.cols, R.indptr, R.indices, R.data)),
             ("heads", P.heads.entries))
    return "".join(
        f"{hashlib.sha256(repr(obj).encode()).hexdigest()}  {name}\n"
        for name, obj in parts).encode()


def headline_run() -> tuple[bytes, bytes, list[str]]:
    """(report, presentation sums, labels of the trace-ideal quotients
    built) of one cold headline `torsion` call."""
    calls, built = [], []
    orig_quotient = dist.trace_ideal_quotient
    orig_build = dist.build_presentation

    def counting(G):
        calls.append(G.modulus.label())
        return orig_quotient(G)

    def keeping(K, m):
        built.append(orig_build(K, m))
        return built[-1]

    dist.trace_ideal_quotient = counting
    dist.build_presentation = keeping
    try:
        report = run_cli(HEADLINE)
    finally:
        dist.trace_ideal_quotient = orig_quotient
        dist.build_presentation = orig_build
    (P,) = built
    return report, presentation_sums(P), calls


@pytest.fixture(scope="module")
def headline():
    return headline_run()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    assert run_cli(REPORTS[name]) == (GOLDEN / f"{name}.json").read_bytes()


def test_headline_report_matches_golden(headline):
    report, _, _ = headline
    assert report == (GOLDEN / f"{HEADLINE_REPORT}.json").read_bytes()


def test_headline_presentation_matches_golden(headline):
    _, sums, _ = headline
    assert sums == (GOLDEN / PRESENTATION_SUMS).read_bytes()


def test_headline_torsion_builds_each_trace_quotient_once(headline):
    # one quotient per divisor of m = p7 p11 p23, shared by the oracle
    # (b) prime set and the annihilation bound
    _, _, calls = headline
    assert len(calls) == 8
    assert len(set(calls)) == 8


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in REPORTS.items():
        (GOLDEN / f"{name}.json").write_bytes(run_cli(argv))
    report, sums, _ = headline_run()
    (GOLDEN / f"{HEADLINE_REPORT}.json").write_bytes(report)
    (GOLDEN / PRESENTATION_SUMS).write_bytes(sums)
