"""Mutation check of the tier-1 tests.

Each mutant is one exact `old -> new` replacement in one module of
src/ordist/ that breaks a check or a result.  The script applies one
mutant at a time to a temporary copy of src/ and tests/, runs there the
tier-1 tests named with the mutant, and counts the mutant as caught
when every one of those tests fails.  A mutant whose tests run past
MUTANT_TIMEOUT_S counts as missed, so every mutant must fail fast.

Usage (from the root of a checkout):

    python3 scripts/mutants.py [NAME ...]

With names, only those mutants run.  Exit status 0 when every mutant
that ran was caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANT_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/ordist/
    old: str  # occurs exactly once in that file
    new: str
    tests: tuple[str, ...]  # tier-1 test ids that must fail


_RELATION_LEVELS = "tests/test_index_presentation.py::" \
    "test_relation_matrix_and_trace_rows_match_tuple_loops"

MUTANTS = (
    Mutant(
        "oracle-a-skips-row-update",
        "zlinalg.py",
        "            A[nzr, :] -= np.outer(col[nzr], row)\n",
        "            A[i, :] = 0\n",
        ("tests/test_golden.py::test_headline_report_matches_golden",
         "tests/test_acceptance.py::test_criterion_6_dual_oracle_agreement",
         "tests/test_zlinalg.py::test_cokernel_fast_path_on_coset_style_matrix"),
    ),
    Mutant(
        "oracle-b-skips-p2",
        "distribution.py",
        "    for p in sorted(_prime_divisors(S)):\n",
        "    for p in sorted(_prime_divisors(S) - {2}):\n",
        ("tests/test_distribution.py::"
         "test_wrong_cokernel_torsion_is_caught_p_locally[19-qs0-wrong0]",
         "tests/test_distribution.py::"
         "test_wrong_cokernel_torsion_is_caught_p_locally[7-qs2-wrong2]"),
    ),
    Mutant(
        "unit-bfs-drops-last-generator",
        "quadfield.py",
        "_discover(order, [perm_of(g) for g in gens], ident)",
        "_discover(order, [perm_of(g) for g in gens[:-1]], ident)",
        ("tests/test_quadfield.py::test_units_mod_split_11",
         "tests/test_index_presentation.py::"
         "test_residue_units_match_tuple_loop_on_prime_powers[d1-2^3]",
         "tests/test_rayclass.py::test_triple_order_and_structure"),
    ),
    Mutant(
        "scatter-drops-frobenius-twist",
        "distribution.py",
        "                        vals.append(np.full(n_u, -1, dtype=np.int64))\n",
        "                        vals.append(np.zeros(n_u, dtype=np.int64))\n",
        (f"{_RELATION_LEVELS}[d7-7*11*23]",
         f"{_RELATION_LEVELS}[d7-11]",
         "tests/test_golden.py::test_headline_report_matches_golden"),
    ),
    Mutant(
        "trace-rows-skip-dedupe",
        "groupring.py",
        "            continue  # an equal subgroup has the same cosets\n",
        "            pass  # an equal subgroup has the same cosets\n",
        (f"{_RELATION_LEVELS}[d3-2^2*7]",),
    ),
)


def _failed(output: str) -> set[str]:
    """Test ids of the FAILED and ERROR lines of pytest -rfE."""
    out = set()
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            out.add(rest.split(" - ")[0])
    return out


def run_mutant(m: Mutant) -> list[str]:
    """The named tests that did not fail under the mutant."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info",
                                    ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / "src" / "ordist" / m.module
        text = target.read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: the old text occurs "
                             f"{text.count(m.old)} times in {m.module}")
        target.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        try:
            r = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE",
                 "-p", "no:cacheprovider", *m.tests],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=MUTANT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return list(m.tests)
    failed = _failed(r.stdout)
    return [t for t in m.tests if t not in failed]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    missed = 0
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        survivors = run_mutant(m)
        missed += bool(survivors)
        status = "caught" if not survivors else \
            "MISSED by " + ", ".join(survivors)
        print(f"{m.name}: {status}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
