"""Golden CLI reports and cache files.

Each golden report is the exact JSON text that `ordist` prints, minus
its `timing_ms` line.  The headline `torsion` run also fills a cache
entry, whose `relations.mat` and `heads.mat` are pinned by sha256
(in `sha256sum` format), and counts the trace-ideal quotients it builds.

After an intended change of a report, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import tempfile
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
CACHE_SUMS = "torsion_headline_cache.sha256"
MATRICES = ("relations.mat", "heads.mat")

_TIMING = re.compile(r',\n  "timing_ms": \d+\n')


def run_cli(argv, cache_dir: Path | None = None) -> bytes:
    """Standard output of one in-process `ordist` call, without its
    timing line.  The cache goes to cache_dir through ORDIST_CACHE, so
    the command echo stays free of paths; with None nothing is cached."""
    saved = os.environ.pop("ORDIST_CACHE", None)
    if cache_dir is not None:
        os.environ["ORDIST_CACHE"] = str(cache_dir)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        os.environ.pop("ORDIST_CACHE", None)
        if saved is not None:
            os.environ["ORDIST_CACHE"] = saved
    if code != 0:
        raise RuntimeError(f"ordist {' '.join(argv)} exited {code}")
    text, n = _TIMING.subn("\n", out.getvalue())
    if n != 1:
        raise RuntimeError("report has no timing line")
    return text.encode()


def cache_sums(cache_dir: Path) -> bytes:
    """sha256sum lines of the cached matrices of the one entry."""
    (entry,) = [p for p in cache_dir.iterdir() if p.is_dir()]
    return "".join(
        f"{hashlib.sha256((entry / name).read_bytes()).hexdigest()}  {name}\n"
        for name in MATRICES).encode()


def headline_run(cache_dir: Path) -> tuple[bytes, bytes, list[str]]:
    """(report, cache sums, labels of the trace-ideal quotients built)
    of one cold headline `torsion` call."""
    calls = []
    orig = dist.trace_ideal_quotient

    def counting(G):
        calls.append(G.modulus.label())
        return orig(G)

    dist.trace_ideal_quotient = counting
    try:
        report = run_cli(HEADLINE, cache_dir)
    finally:
        dist.trace_ideal_quotient = orig
    return report, cache_sums(cache_dir), calls


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    return headline_run(tmp_path_factory.mktemp("golden_cache"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    assert run_cli(REPORTS[name]) == (GOLDEN / f"{name}.json").read_bytes()


def test_headline_report_matches_golden(headline):
    report, _, _ = headline
    assert report == (GOLDEN / f"{HEADLINE_REPORT}.json").read_bytes()


def test_headline_cache_matrices_match_golden(headline):
    _, sums, _ = headline
    assert sums == (GOLDEN / CACHE_SUMS).read_bytes()


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
    with tempfile.TemporaryDirectory() as tmp:
        report, sums, _ = headline_run(Path(tmp))
    (GOLDEN / f"{HEADLINE_REPORT}.json").write_bytes(report)
    (GOLDEN / CACHE_SUMS).write_bytes(sums)
