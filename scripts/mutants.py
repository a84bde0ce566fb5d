"""Mutation check of the tier-1 tests.

Each mutant is one exact `old -> new` replacement in one module of
src/ordist/ that breaks a check or a result.  The script applies one
mutant at a time to a temporary copy of src/, tests/ and perfbench/
(whose survey levels some tests read), runs there the tier-1 tests
named with the mutant, and counts the mutant as caught
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
_DIST = "tests/test_distribution.py::"
_PREREDUCE = "tests/test_unit_prereduce.py::"
_HUGE = "tests/test_cli.py::test_huge_modulus_exits_one_at_once"
_NO_OBJECT = "tests/test_cli.py::test_entry_whose_result_is_no_object_is_a_miss"
_WHOLE = "tests/test_index_presentation.py::" \
    "test_ray_class_groups_match_whole_modulus_"

MUTANTS = (
    Mutant(
        "oracle-a-skips-row-update",
        "zlinalg.py",
        "                    y = get(c, 0) - f * x\n",
        "                    y = get(c, 0) if c != j else 0\n",
        ("tests/test_golden.py::test_headline_report_matches_golden",
         "tests/test_acceptance.py::test_criterion_6_dual_oracle_agreement",
         "tests/test_zlinalg.py::test_cokernel_fast_path_on_coset_style_matrix",
         f"{_PREREDUCE}test_sparse_pass_matches_dense_reference_on_trace_ideals"),
    ),
    Mutant(
        "oracle-a-pivots-on-non-unit",
        "zlinalg.py",
        "                     for j, v in row.items() if v == 1 or v == -1]\n",
        "                     for j, v in row.items() if v]\n",
        (f"{_PREREDUCE}test_sparse_pass_matches_dense_reference",
         "tests/test_zlinalg.py::test_cokernel_matches_sympy"),
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
        "rayclass.py",
        "_discover(order, perms, ident)",
        "_discover(order, perms[:-1], ident)",
        ("tests/test_quadfield.py::test_units_mod_split_11",
         "tests/test_index_presentation.py::"
         "test_residue_units_match_tuple_loop_on_prime_powers[d1-2^3]",
         "tests/test_rayclass.py::test_triple_order_and_structure"),
    ),
    Mutant(
        "unit-lift-skips-idempotent",
        "rayclass.py",
        "reps.append(_residue_reduce(n.ideal, (1 + ex, ey)))",
        "reps.append(_residue_reduce(n.ideal, (x, y)))",
        ("tests/test_rayclass.py::test_triple_order_and_structure",
         f"{_WHOLE}on_transform_divisors"),
    ),
    Mutant(
        "unit-dlog-joins-reversed",
        "rayclass.py",
        "        for P, _, dlog, _, _ in self._units:\n",
        "        for P, _, dlog, _, _ in self._units[::-1]:\n",
        ("tests/test_rayclass.py::test_triple_order_and_structure",
         f"{_WHOLE}on_transform_divisors"),
    ),
    Mutant(
        "unit-lift-check-skipped",
        "rayclass.py",
        "        if [self._unit_dlog_of(r) for r in reps] != \\\n",
        "        if False and [self._unit_dlog_of(r) for r in reps] != \\\n",
        ("tests/test_rayclass.py::test_lifted_unit_generators_are_checked",),
    ),
    Mutant(
        "class-bfs-drops-last-generator",
        "quadfield.py",
        "_discover(self.h, perms, ident)",
        "_discover(self.h, perms[:-1], ident)",
        ("tests/test_index_presentation.py::"
         "test_class_group_matches_tuple_bfs[14]",
         "tests/test_index_presentation.py::"
         "test_class_group_structure_matches_all_forms"),
    ),
    Mutant(
        "frame-tau-takes-first-member",
        "rayclass.py",
        "                    if amb.element_order(x) == gs[p]), None)\n",
        "                    if True), None)\n",
        ("tests/test_rayclass.py::test_frame_ell_two",
         "tests/test_rayclass.py::test_frame_ell_three",
         "tests/test_golden.py::test_report_matches_golden[certify]"),
    ),
    Mutant(
        "class-kernel-row-drops-order",
        "rayclass.py",
        "                kernel.append(words[cl.neg(ec)] + (e,))\n",
        "                kernel.append(words[cl.neg(ec)] + (0,))\n",
        ("tests/test_rayclass.py::test_class_kernel_rows_span_the_kernel",
         "tests/test_rayclass.py::"
         "test_class_part_matches_class_stack_route"),
    ),
    Mutant(
        "frame-search-ignores-j",
        "rayclass.py",
        "            if m >= 2 and (amb.element_order(j) != g_last or\n",
        "            if False and (amb.element_order(j) != g_last or\n",
        ("tests/test_rayclass.py::"
         "test_frame_takes_a_complement_whose_j_generates_the_last_inertia",
         "tests/test_rayclass.py::"
         "test_frame_unavailable_when_no_complement_gives_j"),
    ),
    Mutant(
        "frobenius-lift-takes-index-0",
        "rayclass.py",
        "        lift = self.group.coordinates[g]\n",
        "        lift = self.group.coordinates[0]\n",
        ("tests/test_rayclass.py::test_frobenius_lift_consistent",
         "tests/test_rayclass.py::"
         "test_section_and_frobenius_take_the_first_preimage"),
    ),
    Mutant(
        "section-takes-last-preimage",
        "rayclass.py",
        "            first.setdefault(s, g)\n",
        "            first[s] = g\n",
        ("tests/test_rayclass.py::"
         "test_section_and_frobenius_take_the_first_preimage",),
    ),
    Mutant(
        "scatter-drops-frobenius-twist",
        "distribution.py",
        "                vals += [-1] * n_u\n",
        "                vals += [0] * n_u\n",
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
    # ideal lattices and principality
    Mutant(
        "ideal-lattice-drops-cross-term",
        "quadfield.py",
        "            c, t, ca = g, u * t + v * x, "
        "math.gcd(ca, (y * t - c * x) // g)\n",
        "            c, t = g, u * t + v * x\n",
        ("tests/test_quadfield.py::test_ideal_lattice_matches_hnf_reference",
         "tests/test_quadfield.py::"
         "test_ideal_lattice_matches_hnf_reference_on_prime_ideals[7]",
         "tests/test_quadfield.py::test_split_primes_multiply_to_p"),
    ),
    Mutant(
        "principal-test-skips-reduction",
        "quadfield.py",
        "        if K.form_of_ideal(self) != K.principal_form():\n",
        "        if (self.a, self.b) != K.principal_form()[:2]:\n",
        ("tests/test_quadfield.py::test_norm19_generator_in_minus15",
         "tests/test_quadfield.py::"
         "test_principality_matches_class_triviality[7]",
         "tests/test_quadfield.py::"
         "test_principality_matches_class_triviality[23]"),
    ),
    # the rank certificate and the annihilation check on the heads
    Mutant(
        "certificate-skips-fibre-check",
        "distribution.py",
        "        if any(h != head[lift[s]] for h, s in zip(head, image)):\n",
        "        if False:\n",
        (f"{_DIST}test_certificate_refuses_a_head_off_the_fibres",),
    ),
    Mutant(
        "certificate-skips-cover-check",
        "distribution.py",
        "        if -1 in lift:\n",
        "        if False:\n",
        (f"{_DIST}test_certificate_refuses_lifts_that_miss_a_level",),
    ),
    Mutant(
        "character-count-is-order",
        "distribution.py",
        "    return _primitive_count([[row[g] for g in layout] for row in rows],\n"
        "                            sylows)\n",
        "    return n\n",
        (f"{_DIST}test_rank_defect_is_caught",
         f"{_DIST}test_exact_rank_equals_sympy_rank_on_small_groups"),
    ),
    Mutant(
        "level-torsion-eliminates-transform",
        "distribution.py",
        "    tor = AbGroup(quot.torsion)\n",
        "    _local_valuations(CSRMatrix.from_dense(heads.entries), 2, 1)\n"
        "    tor = AbGroup(quot.torsion)\n",
        (f"{_DIST}test_level_torsion_never_eliminates_the_transform",),
    ),
    Mutant(
        "template-check-ignores-moved-row",
        "distribution.py",
        "        for sigma, (s, e) in enumerate(zip(starts, starts[1:])):\n",
        "        for sigma, (s, e) in enumerate(zip(starts, starts[1:2])):\n",
        (f"{_DIST}test_certificate_refuses_a_permuted_column",),
    ),
    Mutant(
        "template-identity-drops-twist",
        "distribution.py",
        "        for sh, (_, v) in zip(shifts, in_u):\n"
        "            for s, h in zip(sh, hu):\n",
        "        for sh, (_, v) in zip(shifts[:1], in_u):\n"
        "            for s, h in zip(sh, hu):\n",
        (f"{_DIST}test_gather_transform_matches_fraction_reference[7-qs9]",
         "tests/test_golden.py::test_headline_report_matches_golden"),
    ),
    Mutant(
        "alpha-coset-sum-plus-lambda",
        "groupring.py",
        "               for x, g in zip(num, amb.translation(lam))]\n",
        "               for x, g in zip(num, amb.translation(amb.neg(lam)))]\n",
        ("tests/test_groupring.py::test_ring_matches_fraction_reference[7-qs0]",
         f"{_DIST}test_gather_transform_matches_fraction_reference[7-qs0]"),
    ),
    # oracle (b)'s sparse elimination over Z/p^K
    Mutant(
        "local-pass-skips-division",
        "zlinalg.py",
        "                row[c] //= p\n",
        "                row[c] = row[c]\n",
        ("tests/test_zlinalg.py::test_local_valuations_match_sympy",
         "tests/test_zlinalg.py::test_local_valuations_match_dense_reference"),
    ),
    Mutant(
        "local-pass-pivots-on-non-unit",
        "zlinalg.py",
        "                units = [(len(at[c]), c) for c, x in row.items() if x % p]\n",
        "                units = [(len(at[c]), c) for c, x in row.items() if x]\n",
        ("tests/test_zlinalg.py::test_local_valuations_match_sympy",
         "tests/test_zlinalg.py::test_local_valuations_match_dense_reference"),
    ),
    # Smith coordinates
    Mutant(
        "smith-inverse-wrong-sign",
        "zlinalg.py",
        "            R_inv[j] = [a + q * b for a, b in zip(R_inv[j], R_inv[i])]\n",
        "            R_inv[j] = [a - q * b for a, b in zip(R_inv[j], R_inv[i])]\n",
        ("tests/test_zlinalg.py::test_smith_coordinates_exact",
         "tests/test_zlinalg.py::test_smith_coordinates_contract",
         "tests/test_rayclass.py::test_pair_order"),
    ),
    Mutant(
        "smith-drops-free-columns",
        "zlinalg.py",
        "    keep = [i for i, d in enumerate(diag) if d != 1]\n",
        "    keep = [i for i, d in enumerate(diag) if d > 1]\n",
        ("tests/test_cohomology.py::"
         "test_klein_frame_quotient_is_free_of_rank_one",
         "tests/test_cohomology.py::test_empty_subset_gives_free_quotient"),
    ),
    Mutant(
        "smith-check-sees-only-the-diagonal",
        "zlinalg.py",
        "    return all({j: y for j, y in acc.items() if y} == {i: 1}\n",
        "    return all(acc.get(i) == 1\n",
        ("tests/test_zlinalg.py::test_smith_check_refuses_a_pair_off_the_inverse",),
    ),
    # kernels, kernel coordinates and subquotients on the Smith pass
    Mutant(
        "kernel-takes-torsion-columns",
        "zlinalg.py",
        "    return list(zip(*to))[len(group.torsion):]\n",
        "    return list(zip(*to))[:len(group.torsion)]\n",
        ("tests/test_zlinalg.py::test_rational_kernel_saturated",
         "tests/test_zlinalg.py::"
         "test_rational_kernel_saturation_and_exactness"),
    ),
    Mutant(
        "preimage-coords-skip-check",
        "cohomology.py",
        "        if _reduced_product([c], kernel, (0,) * len(vec))[0] "
        "!= tuple(vec):\n",
        "        if False:\n",
        ("tests/test_cohomology.py::"
         "test_preimage_coords_refuse_a_wrong_combination",),
    ),
    Mutant(
        "subquotient-skips-dependence-check",
        "zlinalg.py",
        "    if rational_kernel(kmat.transpose()):\n",
        "    if False:\n",
        ("tests/test_zlinalg.py::test_subquotient_rejects_dependent_rows",),
    ),
    Mutant(
        "subquotient-skips-outside-row",
        "zlinalg.py",
        "    if len(basis) != m or not cokernel(Y, m).is_trivial:\n",
        "    if len(basis) != m:\n",
        ("tests/test_zlinalg.py::test_subquotient_rejects_outside_vector",),
    ),
    # the sparse rows
    Mutant(
        "csr-accepts-descending-columns",
        "zlinalg.py",
        "                or not descents <= set(ptr) or not all(val):\n",
        "                or not all(val):\n",
        ("tests/test_zlinalg.py::"
         "test_csr_matrix_round_trips_and_rejects_bad_rows",),
    ),
    Mutant(
        "csr-accepts-negative-cols",
        "zlinalg.py",
        "        if cols < 0:\n"
        "            raise LinalgError(\"negative matrix dimensions\")\n"
        "        if not ptr",
        "        if not ptr",
        ("tests/test_zlinalg.py::"
         "test_csr_matrix_round_trips_and_rejects_bad_rows",),
    ),
    # the value classes
    Mutant(
        "modulus-eq-ignores-exponents",
        "quadfield.py",
        '    _fields = ("field", "primes")\n',
        '    _fields = ("field", "n_primes")\n',
        ("tests/test_values.py::test_value_semantics[Modulus]",),
    ),
    Mutant(
        "frozen-eq-skips-last-field",
        "__init__.py",
        "        return self._key(self) == self._key(other)\n",
        "        return self._key(self)[:-1] == self._key(other)[:-1]\n",
        ("tests/test_values.py::test_value_semantics[Modulus]",),
    ),
    Mutant(
        "csr-matrix-hashable",
        "zlinalg.py",
        '    _fields = ("cols", "indptr", "indices", "data")\n'
        "    __hash__ = None\n",
        '    _fields = ("cols", "indptr", "indices", "data")\n',
        ("tests/test_values.py::test_value_semantics[CSRMatrix]",),
    ),
    # the character count
    Mutant(
        "character-count-trusts-the-mix",
        "distribution.py",
        "        if _primitive_count([[mix[g] for g in layout]], sylows) == n:\n"
        "            return n\n",
        "        return _primitive_count([[mix[g] for g in layout]], sylows)\n",
        (f"{_DIST}test_crt_character_count_matches_axis_dft[factors0]",),
    ),
    Mutant(
        "character-count-mixed-radix-split",
        "distribution.py",
        "        steps = [[g[i] * u for g in grid] for i, u in enumerate(unit)]\n"
        "        cols = [[c + v for c in col for v in step]\n"
        "                for col, step in zip(cols, steps)]\n",
        "        steps = [[g[i] for g in grid] for i, u in enumerate(unit)]\n"
        "        cols = [[c * x + v for c in col for v in step]\n"
        "                for col, step, x in zip(cols, steps, qe)]\n",
        (f"{_DIST}test_crt_character_count_matches_axis_dft[factors2]",
         f"{_DIST}test_exact_rank_equals_sympy_rank_on_small_groups"),
    ),
    Mutant(
        "primitive-filter-skips-q2",
        "distribution.py",
        "            if top > 1:\n",
        "            if top > 1 and q > 2:\n",
        (f"{_DIST}test_exact_rank_equals_sympy_rank_on_small_groups",
         f"{_DIST}test_crt_character_count_matches_axis_dft[factors1]"),
    ),
    Mutant(
        "quotient-counts-one",
        "distribution.py",
        "        total += _primitive_count(pushed, later, phi * f)\n",
        "        total += _primitive_count(pushed, later, phi)\n",
        (f"{_DIST}test_exact_rank_equals_sympy_rank_on_small_groups",
         "tests/test_golden.py::test_headline_report_matches_golden"),
    ),
    Mutant(
        "enumeration-drops-quotients-of-g2",
        "distribution.py",
        "        sylows.append((q, len(grid), quotients))\n",
        "        sylows.append((q, len(grid), quotients[:1] if q == 2\n"
        "                       else quotients))\n",
        (f"{_DIST}test_cyclic_quotients_are_the_cyclic_subgroups_of_the_dual"
         "[factors0]",
         "tests/test_golden.py::test_headline_report_matches_golden"),
    ),
    Mutant(
        "quotient-phi-sum-unchecked",
        "distribution.py",
        "    if got != n:\n",
        "    if False:\n",
        (f"{_DIST}test_quotients_whose_phi_miss_the_order_are_refused[drop]",
         f"{_DIST}test_quotients_whose_phi_miss_the_order_are_refused"
         "[repeat]"),
    ),
    # moduli and fields above the residue norm bound, and the cache
    # directory
    Mutant(
        "field-bound-after-squarefree",
        "quadfield.py",
        "        if d > RESIDUE_NORM_BOUND:  # before the squarefree test\n"
        "            raise OrdistError(f\"d = {d} exceeds {RESIDUE_NORM_BOUND}\")\n"
        "        if d < 1 or not _is_squarefree(d):\n"
        "            raise NotSquarefree(f\"d = {d} must be squarefree and "
        "positive\")\n",
        "        if d < 1 or not _is_squarefree(d):\n"
        "            raise NotSquarefree(f\"d = {d} must be squarefree and "
        "positive\")\n"
        "        if d > RESIDUE_NORM_BOUND:\n"
        "            raise OrdistError(f\"d = {d} exceeds {RESIDUE_NORM_BOUND}\")\n",
        ("tests/test_cli.py::test_huge_d_exits_one_at_once[prime-near-1e18]",),
    ),
    Mutant(
        "presentation-walks-before-norm-check",
        "distribution.py",
        "        m.check_norm()  # before the walk: a huge exponent has many "
        "divisors\n"
        "        self.levels: tuple[Modulus, ...] = tuple(m.divisors())\n",
        "        self.levels: tuple[Modulus, ...] = tuple(m.divisors())\n"
        "        m.check_norm()\n",
        (f"{_DIST}test_presentation_checks_the_norm_before_the_divisor_walk",),
    ),
    Mutant(
        "norm-check-multiplies-out-huge-norms",
        "quadfield.py",
        "        if bits > _SHOWN_BITS:\n",
        "        if bits < 0:\n",
        ("tests/test_quadfield.py::"
         "test_modulus_too_large_shows_only_a_short_norm",
         f"{_HUGE}[exponent-rayclass]"),
    ),
    Mutant(
        "parser-tests-primality-of-huge-prime",
        "cli.py",
        "    if q > RESIDUE_NORM_BOUND:\n",
        "    if q > RESIDUE_NORM_BOUND and K.splitting_type(q):\n",
        (f"{_HUGE}[prime-above-mr-bound]",),
    ),
    Mutant(
        "parser-works-out-norm-of-any-prime",
        "cli.py",
        "        if q.bit_length() <= _SHOWN_BITS:\n",
        "        if q:\n",
        (f"{_HUGE}[prime-of-4300-digits]",),
    ),
    Mutant(
        "parser-skips-modulus-norm-check",
        "cli.py",
        "    m.check_norm()  # before a cache lookup or a divisor walk\n",
        "",
        ("tests/test_cli.py::test_parser_refuses_a_large_norm_before_computing"
         "[p:2:0:20-1048576]",),
    ),
    Mutant(
        "w-check-after-oracles",
        "cli.py",
        "    _check_coprime_to_w(m)  # before any ray class group of the level\n",
        "",
        ("tests/test_cli.py::test_torsion_checks_w_before_building_the_level",),
    ),
    Mutant(
        "cache-hit-accepts-any-result",
        "cli.py",
        "                or not isinstance(manifest.get(\"result\"), dict):\n",
        "                or \"result\" not in manifest:\n",
        (f"{_NO_OBJECT}[torsion]", f"{_NO_OBJECT}[rayclass]",
         f"{_NO_OBJECT}[certify]"),
    ),
    Mutant(
        "memory-error-gets-through",
        "cli.py",
        "    except MemoryError as exc:\n",
        "    except () as exc:\n",
        ("tests/test_cli.py::test_memory_error_in_any_command_exits_five"
         "[torsion]",
         "tests/test_cli.py::test_memory_error_of_a_capped_child_exits_five"),
    ),
    Mutant(
        "empty-cache-dir-caches-here",
        "cli.py",
        "    if args.no_cache or not root:\n",
        "    if args.no_cache or root is None:\n",
        ("tests/test_cli.py::test_empty_cache_dir_means_no_cache",),
    ),
    # subgroup masks and the synthetic frame
    Mutant(
        "grow-stops-after-one-coset",
        "zlinalg.py",
        "    while not span[coset[0]]:\n",
        "    if not span[coset[0]]:\n",
        ("tests/test_rayclass.py::test_generator_harvests_match_old_loop",
         "tests/test_rayclass.py::"
         "test_subgroup_masks_match_tuple_sets[d15_level]"),
    ),
    Mutant(
        "frame-rows-ignore-composite-last",
        "cohomology.py",
        "        gen = frame.j if (composite_last and i == frame.m) "
        "else frame.tau(i)\n",
        "        gen = frame.tau(i)\n",
        ("tests/test_cohomology.py::test_frame_rows_match_tuple_loops",
         "tests/test_cohomology.py::"
         "test_twisted_rows_match_plain_when_last_index_absent",
         "tests/test_cohomology.py::"
         "test_full_twisted_torsion_odd_and_even_counts"),
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
        for part in ("src", "tests", "perfbench"):
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
