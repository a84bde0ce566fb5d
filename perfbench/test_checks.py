"""Tests of the benchmark's independent checks and span arithmetic.

Run with: python3 -m pytest perfbench/test_checks.py
"""

import random

import pytest

import checks
import inputs
from tracer import kernel_paths, self_times


@pytest.mark.parametrize("d, h, w", [
    (1, 1, 4), (2, 1, 2), (3, 1, 6), (5, 2, 2), (7, 1, 2), (11, 1, 2),
    (14, 4, 2), (15, 2, 2), (19, 1, 2), (23, 3, 2), (47, 5, 2), (71, 7, 2),
])
def test_class_number_and_units(d, h, w):
    assert checks.class_number(checks.disc(d)) == h
    assert checks.unit_count(d) == w


def test_splitting():
    assert checks.splitting(7, 7) == "ramified"
    assert checks.splitting(7, 11) == "split"
    assert checks.splitting(7, 3) == "inert"
    assert checks.splitting(1, 5) == "split"
    assert checks.splitting(1, 7) == "inert"
    assert checks.splitting(3, 7) == "split"


def test_unit_image():
    # mu_w injects modulo any prime of odd norm prime to w ...
    assert checks.unit_image(3, ((7, 0),)) == 6
    assert checks.unit_image(1, ((5, 0),)) == 4
    assert checks.unit_image(7, ((11, 0),)) == 2
    # ... but not modulo the primes above 2 or 3 that divide zeta^k - 1
    assert checks.unit_image(7, ((2, 0),)) == 1
    assert checks.unit_image(3, ((3, 0),)) == 2
    assert checks.unit_image(1, ((2, 0),)) == 1


def test_headline_counts():
    d, primes = inputs.HEADLINE_LEVEL
    assert checks.ray_order(d, primes) == 660
    assert checks.presentation_counts(d, primes) == (886, 247)
    assert checks.order_bound(d, 3) == 2
    assert checks.odd_part(660) == 165


def test_ray_order_small_levels():
    assert checks.ray_order(7, ()) == 1
    assert checks.ray_order(23, ()) == 3
    assert checks.ray_order(3, ((7, 0),)) == 1      # 6 / 6
    assert checks.ray_order(15, ((17, 0),)) == 16   # 2 * 16 / 2
    assert checks.ray_order(1, ((5, 0), (13, 0), (17, 0))) == 192
    with pytest.raises(ValueError):
        checks.ray_order(7, ((3, 0),))


def test_order_bound():
    assert checks.order_bound(7, 0) == 1
    assert checks.order_bound(7, 2) == 1
    assert checks.order_bound(3, 3) == 6
    assert checks.order_bound(15, 3) == 4
    assert checks.order_bound(7, 4) == 2 ** 4


def test_search_count():
    # norms 3 mod 4 below 30 over Q(sqrt(-7)): 7 (ramified), 11, 23
    # (split); all principal since h = 1
    assert checks.search_count(7, 30) == 1 * 2 * 2
    with pytest.raises(ValueError):
        checks.search_count(1, 30)


def test_sweep_cases():
    assert checks.sweep_cases(4) == 2 + 3 + 4 + 5


def test_smith_torsion_known():
    assert checks.smith_torsion([[2, 0], [0, 3]], 2) == ((6,), 0)
    assert checks.smith_torsion([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3) \
        == ((2, 2, 156), 0)
    assert checks.smith_torsion([[1, 1, 0]], 3) == ((), 2)
    assert checks.smith_torsion([], 2) == ((), 2)


def test_smith_torsion_matches_sympy():
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 1, -1, 2, 3, -4]) for _ in range(c)]
                for _ in range(r)]
        inv = [abs(int(x)) for x in invariant_factors(
            DomainMatrix([[ZZ(x) for x in row] for row in rows], (r, c), ZZ))]
        want = (tuple(x for x in inv if x > 1),
                c - sum(1 for x in inv if x))
        assert checks.smith_torsion(rows, c) == want


def test_inputs_are_admissible():
    for d, primes in [*inputs.SURVEY_LEVELS, inputs.SURVEY_STALLED,
                      *inputs.CACHE_LEVELS]:
        w = checks.unit_count(d)
        for q, _ in primes:
            assert checks.is_prime(q) and w % q
            assert checks.splitting(d, q) != "inert"
    assert len(set(inputs.SURVEY_LEVELS)) == len(inputs.SURVEY_LEVELS)
    assert {d for d, _ in inputs.SURVEY_LEVELS} == set(inputs.SURVEY_FIELDS)


def test_seed_only_permutes():
    a, b = inputs.survey_order(1), inputs.survey_order(2)
    assert a != b and sorted(a) == sorted(b)
    assert inputs.survey_order(1) == a
    fill, repeat = inputs.cache_order(3, 1)
    assert sorted(fill) == sorted(inputs.CACHE_LEVELS)
    assert sum(rev for _, rev in repeat) == len(inputs.CACHE_REORDERED)


def _span(name, start, end, parent, op="L"):
    return [name, start, end, parent, op]


def test_self_times_subtract_direct_children():
    spans = [_span("distribution.level_torsion", 0.0, 10.0, None),
             _span("zlinalg.cokernel", 1.0, 2.0, 0),
             _span("zlinalg.modular_rank", 3.0, 7.0, 0),
             _span("zlinalg.row_saturation", 4.0, 6.0, 2)]
    assert self_times(spans) == [5.0, 1.0, 2.0, 2.0]


@pytest.mark.parametrize("children, path", [
    (["zlinalg.rational_kernel"], "direct"),
    (["zlinalg.modular_rank", "zlinalg.row_saturation"], "certified"),
    # a certified path without row_saturation still counts as certified
    (["zlinalg.modular_rank"], "certified"),
    (["zlinalg.modular_rank", "zlinalg.rational_kernel"], "fallback"),
    (["zlinalg.cokernel"], "reused"),
])
def test_kernel_paths(children, path):
    spans = [_span("distribution.level_torsion", 0.0, 9.0, None)]
    spans += [_span(c, 1.0 + k, 1.5 + k, 0) for k, c in enumerate(children)]
    assert kernel_paths(spans) == [("L", path)]
