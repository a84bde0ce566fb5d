"""Tate groups of cyclic actions and the synthetic frame torsion law."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordist.cohomology import (
    CyclicModule,
    NotCyclic,
    SylowFrameSynthetic,
    _lattice_preimage,
    _module_from_presentation,
    _porder,
    _trace_rows,
    _translation_rows,
    build_lambda_quotients,
    dimension_shift,
    hpq_spot_check,
    sweep_torsion_law,
    tate_cyclic,
    twisted_trace_torsion,
    verify_tor_h2,
)
from ordist.zlinalg import AbGroup, AbHom, LinalgError

import tuple_presentation as tp


def _cyclic_action(invariants, rows, order):
    grp = AbGroup(tuple(invariants))
    return CyclicModule(grp, AbHom(grp, grp, tuple(tuple(r) for r in rows)), order)


def _regular(k):
    rows = [[1 if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
    return _cyclic_action((0,) * k, rows, k)


# ---------------------------------------------------------------------------
# tate_cyclic on hand modules


def test_trivial_action_on_z():
    mod = _cyclic_action((0,), [[1]], 2)
    assert tate_cyclic(mod, "even").invariant_factors == (2,)
    assert tate_cyclic(mod, "odd").is_trivial


def test_negation_on_z():
    mod = _cyclic_action((0,), [[-1]], 2)
    assert tate_cyclic(mod, "even").is_trivial
    assert tate_cyclic(mod, "odd").invariant_factors == (2,)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_regular_module_is_cohomologically_trivial(k):
    mod = _regular(k)
    assert tate_cyclic(mod, "even").is_trivial
    assert tate_cyclic(mod, "odd").is_trivial


def test_coprime_order_action_vanishes():
    # multiplication by 2 on Z/5 has order 4, coprime to 5
    mod = _cyclic_action((5,), [[2]], 4)
    assert tate_cyclic(mod, "even").is_trivial
    assert tate_cyclic(mod, "odd").is_trivial


def test_trivial_action_on_finite_cyclic():
    mod = _cyclic_action((8,), [[1]], 2)
    assert tate_cyclic(mod, "even").invariant_factors == (2,)
    assert tate_cyclic(mod, "odd").invariant_factors == (2,)


def test_coordinate_swap_is_induced():
    mod = _cyclic_action((4, 4), [[0, 1], [1, 0]], 2)
    assert tate_cyclic(mod, "even").is_trivial
    assert tate_cyclic(mod, "odd").is_trivial


def test_parity_argument_is_validated():
    mod = _cyclic_action((0,), [[1]], 2)
    with pytest.raises(ValueError):
        tate_cyclic(mod, "both")


def test_declared_order_is_checked():
    grp = AbGroup((0, 0, 0))
    shift = AbHom(grp, grp, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(ValueError):
        CyclicModule(grp, shift, 2)
    CyclicModule(grp, shift, 6)  # non-faithful declared order is fine


def test_declared_order_is_checked_on_mixed_modules():
    # on Z/9 x Z/9 x Z, t swaps the Z/9's doubling one of them, so t^2
    # doubles both (2 has order 6 mod 9), and negates Z: t has order 12
    grp = AbGroup((9, 9, 0))
    t = AbHom(grp, grp, ((0, 1, 0), (2, 0, 0), (0, 0, -1)))
    for order in range(1, 37):
        if order % 12:
            with pytest.raises(ValueError, match="not the identity"):
                CyclicModule(grp, t, order)
        else:
            CyclicModule(grp, t, order)
    # repeated squaring: a huge declared order costs a few products
    CyclicModule(grp, t, 12 * 10 ** 9)
    with pytest.raises(ValueError, match="not the identity"):
        CyclicModule(grp, t, 12 * 10 ** 9 + 6)


def test_action_must_be_endomorphism():
    a = AbGroup((2,))
    b = AbGroup((4,))
    hom = AbHom(a, b, ((2,),))
    with pytest.raises(ValueError):
        CyclicModule(a, hom, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.data())
def test_herbrand_quotient_is_one_on_finite_modules(d, data):
    units = [u for u in range(1, d) if __import__("math").gcd(u, d) == 1]
    u = data.draw(st.sampled_from(units))
    k, p = 1, u % d
    while p != 1 % d:
        p = (p * u) % d
        k += 1
    mod = _cyclic_action((d,), [[u]], k)
    even = tate_cyclic(mod, "even")
    odd = tate_cyclic(mod, "odd")
    assert even.order == odd.order
    assert k % even.exponent == 0 and k % odd.exponent == 0


# ---------------------------------------------------------------------------
# two-periodicity through the induced-module shift


SHIFT_CASES = [
    _cyclic_action((8,), [[1]], 2),
    _cyclic_action((8,), [[-1]], 2),
    _cyclic_action((5,), [[2]], 4),
    _cyclic_action((4, 4), [[0, 1], [1, 0]], 2),
    _cyclic_action((7,), [[2]], 3),
    _cyclic_action((9,), [[2]], 6),
    _cyclic_action((2, 8), [[1, 0], [0, -1]], 2),
]


@pytest.mark.parametrize("mod", SHIFT_CASES)
def test_dimension_shift_swaps_parities(mod):
    shifted = dimension_shift(mod)
    assert tate_cyclic(shifted, "even") == tate_cyclic(mod, "odd")
    assert tate_cyclic(shifted, "odd") == tate_cyclic(mod, "even")


def _preimage_case():
    """x @ [[2], [3]] in 6 Z: the preimage lattice of index 6 in Z^2."""
    return [[2], [3]], [[6]], 2


def test_preimage_coords_read_the_kernel_basis():
    basis, coords = _lattice_preimage(*_preimage_case())
    assert len(basis) == 2
    for k, x in enumerate(basis):
        z = -(2 * x[0] + 3 * x[1]) // 6
        assert coords(list(x) + [z]) == tuple(int(i == k) for i in range(2))


def test_preimage_coords_refuse_a_wrong_combination(monkeypatch):
    # rows that are not those of R^-1 read coordinates whose combination
    # misses the vector
    import ordist.cohomology as co
    real = co.smith_coordinates

    def doubled(A, ambient):
        group, to, back = real(A, ambient)
        return group, to, tuple(tuple(2 * x for x in r) for r in back)

    monkeypatch.setattr(co, "smith_coordinates", doubled)
    basis, coords = _lattice_preimage(*_preimage_case())
    x = basis[0]
    with pytest.raises(LinalgError, match="reproduce"):
        coords(list(x) + [-(2 * x[0] + 3 * x[1]) // 6])


# ---------------------------------------------------------------------------
# synthetic frames


def test_frame_validation():
    with pytest.raises(ValueError):
        SylowFrameSynthetic(4, (4, 4), 1)  # not prime
    with pytest.raises(ValueError):
        SylowFrameSynthetic(2, (6, 2), 1)  # not a power
    with pytest.raises(ValueError):
        SylowFrameSynthetic(2, (2, 4), 1)  # smallest not last
    with pytest.raises(ValueError):
        SylowFrameSynthetic(2, (4, 2), 2)  # r too large for the last order


def test_frame_composite_element():
    frame = SylowFrameSynthetic(2, (4, 2, 2), 1)
    assert frame.moduli == (4, 2, 1)
    assert frame.j == (2, 1, 0)
    assert _porder(frame.moduli, frame.j) == 2
    assert frame.tau(2) == (0, 1, 0)
    with pytest.raises(ValueError):
        frame.tau(4)


def test_klein_frame_quotient_is_free_of_rank_one():
    frame = SylowFrameSynthetic(2, (2, 2, 2), 1)
    plain, twisted = build_lambda_quotients(frame, [1, 2])
    assert plain.module.invariant_factors == (0,)
    assert twisted.module == plain.module  # last index untouched
    _, full = build_lambda_quotients(frame, [1, 2, 3])
    assert full.module.torsion == (2,)


def test_twisted_rows_match_plain_when_last_index_absent():
    frame = SylowFrameSynthetic(2, (2, 2, 2), 1)
    assert _trace_rows(frame, [1], True) == _trace_rows(frame, [1], False)
    assert _trace_rows(frame, [1, 3], True) != _trace_rows(frame, [1, 3], False)


def test_empty_subset_gives_free_quotient():
    frame = SylowFrameSynthetic(2, (2, 2, 2), 1)
    plain, twisted = build_lambda_quotients(frame, [])
    assert plain.module.rank == 4 and plain.module.torsion == ()
    assert twisted.module == plain.module
    assert tate_cyclic(plain, "even").is_trivial
    assert tate_cyclic(plain, "odd").is_trivial
    assert twisted_trace_torsion(frame, []).is_trivial


def test_full_twisted_torsion_odd_and_even_counts():
    assert twisted_trace_torsion(
        SylowFrameSynthetic(2, (2, 2, 2), 1)).invariant_factors == (2,)
    assert twisted_trace_torsion(
        SylowFrameSynthetic(2, (2, 2), 1)).is_trivial
    assert twisted_trace_torsion(
        SylowFrameSynthetic(2, (2,), 1)).is_trivial
    assert twisted_trace_torsion(
        SylowFrameSynthetic(3, (9, 3, 3), 1)).invariant_factors == (3,)


def test_verify_tor_h2_examples():
    frame = SylowFrameSynthetic(2, (2, 2, 2), 1)
    assert verify_tor_h2(frame, [1, 2])
    assert twisted_trace_torsion(frame, [1, 2, 3]).invariant_factors == (2,)
    assert verify_tor_h2(frame, [])
    assert verify_tor_h2(SylowFrameSynthetic(3, (9, 9), 1), [1])
    with pytest.raises(ValueError):
        verify_tor_h2(frame, [1, 3])


def test_verify_tor_h2_across_small_frames():
    for frame in (SylowFrameSynthetic(2, (4, 2, 2), 1),
                  SylowFrameSynthetic(2, (4, 4, 2), 1),
                  SylowFrameSynthetic(3, (3, 3, 3), 1),
                  SylowFrameSynthetic(2, (4, 4), 0)):
        m = frame.m
        for size in range(m):
            for subset in __import__("itertools").combinations(range(1, m), size):
                assert verify_tor_h2(frame, subset), (frame, subset)


def test_hpq_spot_check_and_not_cyclic():
    frame = SylowFrameSynthetic(2, (2, 2, 2), 1)
    assert hpq_spot_check(frame, [1], [1, 2])
    with pytest.raises(NotCyclic):
        hpq_spot_check(frame, [], [1])
    with pytest.raises(ValueError):
        hpq_spot_check(frame, [1, 2], [1, 2])
    # substantive leftover generator of order 4
    wide = SylowFrameSynthetic(2, (4, 4, 4), 0)
    assert hpq_spot_check(wide, [1], [1, 2])


def test_quotients_are_free_over_untouched_generators():
    frames = [SylowFrameSynthetic(2, (2, 2, 2), 1),
              SylowFrameSynthetic(2, (4, 4, 2), 0),
              SylowFrameSynthetic(3, (9, 3), 0),
              SylowFrameSynthetic(3, (3, 3), 1)]
    from itertools import combinations
    for frame in frames:
        size = frame.size
        indices = range(1, frame.m + 1)
        for n_sub in range(frame.m):
            for subset in combinations(indices, n_sub):
                rows = _trace_rows(frame, subset, False)
                for k in indices:
                    if k in subset:
                        continue
                    actor = frame.tau(k)
                    mod = _module_from_presentation(
                        size, rows, _translation_rows(frame, actor),
                        _porder(frame.moduli, actor))
                    assert tate_cyclic(mod, "even").is_trivial, (frame, subset, k)
                    assert tate_cyclic(mod, "odd").is_trivial, (frame, subset, k)


def test_sweep_torsion_law_both_primes():
    for ell in (2, 3):
        records = sweep_torsion_law(ell, 4)
        assert all(rec["law_holds"] for rec in records)
        by_m = {}
        for rec in records:
            by_m.setdefault(rec["m"], set()).add(tuple(rec["torsion"]))
        assert by_m[1] == {()}
        assert by_m[2] == {()}
        assert by_m[3] == {(ell,)}
        assert by_m[4] == {()}


def test_sweep_with_trivial_drop_has_no_torsion():
    records = sweep_torsion_law(2, 3, r=0)
    assert all(rec["law_holds"] for rec in records)
    assert all(rec["torsion"] == [] for rec in records)


def _sweep_frames(max_size):
    """The frames of the sweep space (ell 2 or 3, r 0 or 1, up to four
    generators of order ell or ell^2) with at most max_size elements."""
    for ell in (2, 3):
        for r in (0, 1):
            for m in range(1, 5):
                for shape in sorted({tuple(sorted(c, reverse=True)) for c in
                                     itertools.product((ell, ell * ell),
                                                       repeat=m)}):
                    frame = SylowFrameSynthetic(ell, shape, r)
                    if frame.size <= max_size:
                        yield frame


def test_frame_rows_match_tuple_loops():
    # the index code against the element-tuple loops it replaced, on
    # every subset, plain and twisted, and every generator and j
    cases = 0
    for frame in _sweep_frames(243):
        m = frame.m
        for elt in [frame.tau(i) for i in range(1, m + 1)] + [frame.j]:
            assert list(map(list, _translation_rows(frame, elt).entries)) == \
                tp.frame_translation_rows(frame, elt), (frame, elt)
        for k in range(m + 1):
            for subset in itertools.combinations(range(1, m + 1), k):
                for twisted in (False, True):
                    got = _trace_rows(frame, subset, twisted)
                    want = tp.frame_trace_rows(frame, subset, twisted)
                    assert got.cols == frame.size
                    assert list(map(list, got.entries)) == [list(r) for r in want], \
                        (frame, subset, twisted)
                    cases += 1
    assert cases == 816  # of the 1024 in the sweep space
