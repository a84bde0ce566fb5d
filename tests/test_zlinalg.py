"""Oracle and property tests for the integer linear algebra core."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordist.zlinalg import (
    AbGroup,
    AbHom,
    GeneratorsInsufficient,
    IntMatrix,
    LinalgError,
    NotSubLattice,
    ab_discover,
    cokernel,
    hnf,
    hnf_basis,
    rational_kernel,
    snf,
    snf_invariants,
    solve_left,
    subquotient_torsion,
)


# -- brute-force oracle: invariant factors from gcds of k x k minors --------

def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def minor_gcd_invariants(rows, cols_n):
    """d_k = gcd(k-minors)/gcd((k-1)-minors); exponential, tiny inputs only."""
    m = len(rows)
    invs = []
    prev = 1
    for k in range(1, min(m, cols_n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(cols_n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, _det(sub))
        if g == 0:
            break
        invs.append(g // prev)
        prev = g
    return invs


# -- frozen examples ---------------------------------------------------------

def test_hnf_identity():
    H, U = hnf(IntMatrix.identity(2))
    assert H == IntMatrix.identity(2)
    assert U == IntMatrix.identity(2)


def test_hnf_small():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    H, U = hnf(A)
    assert H.entries == ((2, 0), (0, 4))
    # U A = H exactly
    prod = [[sum(U[i, k] * A[k, j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert tuple(tuple(r) for r in prod) == H.entries


def test_hnf_zero():
    A = IntMatrix.zeros(2, 3)
    H, _ = hnf(A)
    assert H == IntMatrix.zeros(2, 3)


def test_hnf_empty():
    H, U = hnf(IntMatrix.zeros(0, 4))
    assert H.rows == 0 and H.cols == 4
    assert U.rows == 0


def test_snf_diag_6_4():
    d, L, R = snf(IntMatrix.from_rows([[6, 0], [0, 4]]))
    assert d == [2, 12]


def test_snf_transforms_exact():
    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    d, L, R = snf(A)
    n, c = A.rows, A.cols
    prod = [[sum(L[i, k] * A[k, j] for k in range(n)) for j in range(c)]
            for i in range(n)]
    prod = [[sum(prod[i][k] * R[k, j] for k in range(c)) for j in range(c)]
            for i in range(n)]
    for i in range(n):
        for j in range(c):
            want = d[i] if i == j and i < len(d) else 0
            assert prod[i][j] == want
    assert abs(_det([list(r) for r in L.entries])) == 1
    assert abs(_det([list(r) for r in R.entries])) == 1


def test_cokernel_free():
    g = cokernel(IntMatrix.zeros(0, 3), 3)
    assert g.invariant_factors == (0, 0, 0)
    assert g.rank == 3


def test_cokernel_diagonal():
    g = cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]), 2)
    assert g.invariant_factors == (6,)


def test_cokernel_z2():
    g = cokernel(IntMatrix.from_rows([[1, 1], [1, -1]]), 2)
    assert g.invariant_factors == (2,)


def test_rational_kernel_difference():
    assert rational_kernel([[1, -1]]) == [(1, 1)]


def test_rational_kernel_identity():
    assert rational_kernel(IntMatrix.identity(3)) == []


def test_rational_kernel_saturated():
    assert rational_kernel([[2, 4]]) == [(2, -1)]


def test_rational_kernel_fractions():
    assert rational_kernel([[3, 2]]) == [(2, -3)]


def test_from_rows_rejects_floats():
    # a parse to int64 would truncate this to [[0, 2]]
    with pytest.raises(LinalgError, match="integers"):
        IntMatrix.from_rows([[0.5, 2.7]])


def test_rational_kernel_rejects_fractions():
    # a parse to int64 would see a zero row, whose kernel is everything
    with pytest.raises(LinalgError, match="integers"):
        rational_kernel([[Fraction(1, 2), Fraction(1, 3)]])


def test_from_rows_past_int64_stays_exact():
    # numpy parses this row as float64
    big = IntMatrix.from_rows([[2 ** 63, -1]])
    assert big.array.dtype == object
    assert big.entries == ((2 ** 63, -1),)
    assert all(type(x) is int for x in big.array.ravel())


def test_subquotient_trivial():
    K = [(1, 0), (0, 1)]
    assert subquotient_torsion(K, K).is_trivial


def test_subquotient_index_two_line():
    g = subquotient_torsion([(1, 0)], [(2, 0)])
    assert g.invariant_factors == (2,)


def test_subquotient_z2():
    g = subquotient_torsion([(1, 0), (0, 1)], [(1, 1), (1, -1)])
    assert g.invariant_factors == (2,)


def test_subquotient_rejects_outside_vector():
    with pytest.raises(NotSubLattice):
        subquotient_torsion([(2, 0), (0, 1)], [(1, 0)])


def test_ab_discover_trivial():
    g, dlog = ab_discover(1, lambda a, b: 0, [], identity=0)
    assert g.is_trivial
    assert dlog[0] == ()


def test_ab_discover_z6():
    g, dlog = ab_discover(6, lambda a, b: (a + b) % 6, [1])
    assert g.invariant_factors == (6,)
    orders = {g.element_order(dlog[x]) for x in range(6)}
    assert orders == {1, 2, 3, 6}


def test_ab_discover_klein():
    def mul(a, b):
        return (a[0] ^ b[0], a[1] ^ b[1])
    g, dlog = ab_discover(4, mul, [(1, 0), (0, 1)])
    assert g.invariant_factors == (2, 2)
    assert dlog[(0, 0)] == (0, 0)
    imgs = {dlog[e] for e in [(0, 0), (1, 0), (0, 1), (1, 1)]}
    assert len(imgs) == 4


def test_ab_discover_insufficient():
    with pytest.raises(GeneratorsInsufficient):
        ab_discover(6, lambda a, b: (a + b) % 6, [2])


def test_ab_discover_closure_exceeds_order():
    with pytest.raises(LinalgError, match="closure exceeds declared order"):
        ab_discover(3, lambda a, b: (a + b) % 6, [1], identity=0)


def test_solve_left():
    A = [[1, 2, 0], [0, 3, 1]]
    x = solve_left(A, [2, 7, 1])
    assert x is not None
    got = [sum(x[i] * A[i][j] for i in range(2)) for j in range(3)]
    assert got == [2, 7, 1]
    assert solve_left([[2, 0]], [1, 0]) is None


# -- serialization -----------------------------------------------------------

def test_text_round_trip():
    A = IntMatrix.from_rows([[0, -17, 2 ** 80], [5, 0, -1]])
    assert IntMatrix.from_text(A.to_text()) == A


def test_text_rejects_bad_body():
    with pytest.raises(LinalgError):
        IntMatrix.from_text("2 2\n1 2\n3")


# -- AbGroup / AbHom ---------------------------------------------------------

def test_abgroup_validation():
    with pytest.raises(LinalgError):
        AbGroup((2, 3))
    with pytest.raises(LinalgError):
        AbGroup((1,))
    with pytest.raises(LinalgError):
        AbGroup((0, 2))


def test_abgroup_from_moduli():
    g = AbGroup.from_moduli([2, 3, 4])
    assert g.invariant_factors == (2, 12)
    assert g.order == 24
    assert AbGroup.from_moduli([1, 1]).is_trivial
    assert AbGroup.from_moduli([0, 2]).invariant_factors == (2, 0)


def test_abgroup_elements():
    g = AbGroup((2, 4))
    els = g.elements()
    assert len(els) == 8
    assert len({g.index_of(e) for e in els}) == 8
    a = (1, 3)
    assert g.add(a, g.neg(a)) == g.zero()
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4


@pytest.mark.parametrize("inv", [(), (5,), (2, 4), (2, 6, 12)])
def test_abgroup_index_arrays_match_tuples(inv):
    g = AbGroup(inv)
    coords = g.coordinates()
    assert coords.shape == (g.order, len(inv))
    assert [tuple(r) for r in coords.tolist()] == g.elements()
    assert g.indices(coords).tolist() == list(range(g.order))
    # translation on indices agrees with add and index_of
    rng = random.Random(len(inv))
    for _ in range(5):
        s = tuple(rng.randrange(d) for d in inv)
        moved = g.indices(coords + np.array(s, dtype=np.int64))
        assert moved.tolist() == [g.index_of(g.add(e, s))
                                  for e in g.elements()]


def test_abgroup_index_arrays_reject_infinite():
    with pytest.raises(LinalgError):
        AbGroup((2, 0)).coordinates()
    with pytest.raises(LinalgError):
        AbGroup((0,)).radix()


def test_abhom_well_defined():
    dom = AbGroup((2,))
    cod = AbGroup((4,))
    AbHom(dom, cod, ((2,),))
    with pytest.raises(LinalgError):
        AbHom(dom, cod, ((1,),))


def test_abhom_apply_compose():
    dom = AbGroup((4,))
    mid = AbGroup((2,))
    proj = AbHom(dom, mid, ((1,),))
    incl = AbHom(mid, dom, ((2,),))
    assert proj.apply((3,)) == (1,)
    comp = proj.compose(incl)
    assert comp.apply((1,)) == (0,)


# -- property tests ----------------------------------------------------------

small = st.integers(min_value=-5, max_value=5)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small, min_size=c, max_size=c),
                min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_snf_matches_minor_gcd_oracle(rows):
    inv = snf_invariants(IntMatrix.from_rows(rows), verify=True)
    assert inv == minor_gcd_invariants(rows, len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_hnf_membership_and_lattice_stability(rows):
    H, U = hnf(IntMatrix.from_rows(rows))
    n, c = len(rows), len(rows[0])
    prod = [[sum(U[i, k] * rows[k][j] for k in range(n)) for j in range(c)]
            for i in range(n)]
    assert tuple(tuple(r) for r in prod) == H.entries
    assert abs(_det([list(r) for r in U.entries])) == 1
    # H rows lie in the lattice of A and vice versa
    assert hnf_basis(H.entries) == hnf_basis(rows)
    # pivot structure: strictly increasing pivot columns, nonzero rows on top
    pivcols = []
    for r in H.entries:
        nz = [j for j, x in enumerate(r) if x]
        if nz:
            assert not pivcols or nz[0] > pivcols[-1]
            assert r[nz[0]] > 0
            pivcols.append(nz[0])


@settings(max_examples=40, deadline=None)
@given(matrices(4), st.randoms(use_true_random=False))
def test_cokernel_invariant_under_row_ops(rows, rng):
    n = len(rows)
    amb = len(rows[0])
    base = cokernel(IntMatrix.from_rows(rows), amb)
    mixed = [list(r) for r in rows]
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0:
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif op == 1:
            mixed[i] = [-x for x in mixed[i]]
        elif i != j:
            mixed[i] = [a + b for a, b in zip(mixed[i], mixed[j])]
    assert cokernel(IntMatrix.from_rows(mixed), amb) == base


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_rational_kernel_saturation_and_exactness(rows):
    ker = rational_kernel(rows)
    amb = len(rows[0])
    for v in ker:
        assert all(sum(r[j] * v[j] for j in range(amb)) == 0 for r in rows)
    if ker:
        assert all(d == 1 for d in snf_invariants(IntMatrix.from_rows(ker), verify=True))
    nz = [r for r in rows if any(r)]
    rank = len(hnf_basis(nz)) if nz else 0
    assert len(ker) == amb - rank


@settings(max_examples=40, deadline=None)
@given(matrices(4))
def test_subquotient_full_lattice_matches_cokernel(rows):
    amb = len(rows[0])
    full = [[1 if i == j else 0 for j in range(amb)] for i in range(amb)]
    assert subquotient_torsion(full, rows) == cokernel(IntMatrix.from_rows(rows), amb)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_ab_discover_recovers_product_structure(moduli):
    group = AbGroup.from_moduli(moduli)

    def mul(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    gens = [tuple((1 if i == j else 0) % m for j, m in enumerate(moduli))
            for i in range(len(moduli))]
    found, dlog = ab_discover(group.order, mul, gens)
    assert found == group
    assert len(dlog) == group.order


def test_snf_modular_verification_pass_runs():
    # force the verification path on a small matrix
    inv = snf_invariants(IntMatrix.from_rows([[4, 0], [0, 90]]), verify=True)
    assert inv == [2, 180]


def test_large_dim_triggers_verification(monkeypatch):
    import ordist.zlinalg as zl
    calls = []
    orig = zl._snf_local_valuations

    def spy(mat, p, vmax):
        calls.append(p)
        return orig(mat, p, vmax)

    monkeypatch.setattr(zl, "_snf_local_valuations", spy)
    monkeypatch.setattr(zl, "_VERIFY_DIM", 10)
    big = IntMatrix.from_rows(
        [[6 if i == j else 0 for j in range(12)] for i in range(12)])
    assert snf_invariants(big) == [6] * 12
    assert sorted(calls) == [2, 3]


def test_verification_detects_wrong_invariants(monkeypatch):
    import ordist.zlinalg as zl
    # corrupt the local pass to simulate a bug: drop one pivot valuation
    orig = zl._snf_local_valuations
    monkeypatch.setattr(zl, "_snf_local_valuations",
                        lambda mat, p, vmax: orig(mat, p, vmax)[:-1])
    with pytest.raises(LinalgError):
        snf_invariants(IntMatrix.from_rows([[4, 0], [0, 90]]), verify=True)


def test_unit_prereduce_matches_plain_snf():
    from ordist.zlinalg import _unit_prereduce, snf_invariants

    rng = random.Random(11)
    for trial in range(12):
        n = rng.randrange(4, 12)
        m = rng.randrange(4, 12)
        rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        mat = IntMatrix.from_rows(rows, m)
        ones, rest = _unit_prereduce(mat)
        fast = sorted([1] * ones + snf_invariants(rest, verify=False))
        plain = sorted(snf_invariants(mat, verify=False))
        assert fast == plain, (trial, fast, plain)


def test_cokernel_fast_path_on_coset_style_matrix():
    rows = []
    n = 60
    for step in (2, 3, 5):
        for start in range(step):
            row = [1 if i % step == start else 0 for i in range(n)]
            rows.append(row)
    mat = IntMatrix.from_rows(rows, n)
    plain = snf_invariants(mat, verify=False)
    want = AbGroup(tuple(d for d in plain if d > 1)
                   + (0,) * (n - len(plain)))
    assert cokernel(mat, n) == want


def test_modular_rank_known_values():
    from ordist.zlinalg import modular_rank

    assert modular_rank([[1, 2], [2, 4]]) == 1
    assert modular_rank([[1, 0, 3], [0, 1, 5]]) == 2
    assert modular_rank(IntMatrix.zeros(3, 4)) == 0
    # rank can drop at a bad prime but never rise
    assert modular_rank([[5]], p=5) == 0
    assert modular_rank([[5]], p=7) == 1


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_modular_rank_lower_bounds_rational_rank(rows):
    from ordist.zlinalg import modular_rank

    mat = IntMatrix.from_rows(rows, 3)
    exact = len(snf_invariants(mat, verify=False))
    assert modular_rank(mat) <= exact
    # the default prime is far larger than any entry product here
    assert modular_rank(mat) == exact


# -- differential tests against sympy ---------------------------------------

def _entries():
    # small values, and multiples of 2^63: those leave int64, so the
    # matrices run the object path of every routine
    small = st.integers(-6, 6)
    return st.one_of(small, small.map(lambda k: k << 63))


@st.composite
def _int_matrices(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_entries(), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        # a dependent row, so that rank defects are common
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    return rows


def _sympy_factors(rows):
    """Nonzero invariant factors of the row matrix, by sympy."""
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    return [abs(int(d)) for d in invariant_factors(Matrix(rows)) if d != 0]


@given(_int_matrices())
@example([[1, 1 << 62], [1 << 62, 1]])  # int64 entries, pivot overflows
@settings(max_examples=80, deadline=None)
def test_cokernel_matches_sympy(rows):
    cols = len(rows[0])
    factors = _sympy_factors(rows)
    mat = IntMatrix.from_rows(rows, cols)
    got = cokernel(mat, cols)
    assert got.torsion == tuple(d for d in factors if d > 1)
    assert got.rank == cols - len(factors)
    # the Smith elimination alone, without the unit pre-reduction
    assert snf_invariants(mat, verify=False) == factors


@given(_int_matrices(), st.sampled_from([2, 3, 5]))
@example([[2, 1], [4, 3]], 2)  # a column left without pivot, then updated
@settings(max_examples=80, deadline=None)
def test_local_valuations_match_sympy(rows, p):
    from ordist.zlinalg import _snf_local_valuations, _val

    want = sorted(_val(d, p) for d in _sympy_factors(rows))
    mat = IntMatrix.from_rows(rows, len(rows[0]))
    assert _snf_local_valuations(mat, p, max(want, default=0)) == want


@given(_int_matrices(), st.sampled_from([2, 3, 5, 2147483647, (1 << 61) - 1]))
@example([[1, -1], [-1, 1]], (1 << 61) - 1)  # products beyond int64
@settings(max_examples=80, deadline=None)
def test_modular_rank_matches_sympy(rows, p):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    from ordist.zlinalg import modular_rank

    want = DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()
    assert modular_rank(IntMatrix.from_rows(rows, len(rows[0])), p) == want


def test_sympy_strategy_reaches_the_object_path():
    big = IntMatrix.from_rows([[1 << 63, 3], [2, -(1 << 63)]])
    assert big.array.dtype == object
    assert IntMatrix.from_rows([[(1 << 63) - 1, -(1 << 63) + 1]]) \
        .array.dtype == np.int64
    assert IntMatrix.from_rows([[-(1 << 63)]]).array.dtype == object


# the least strong pseudoprimes to the prime bases up to 7 and up to
# 31: only bases beyond those reject them
_STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051)


@given(st.integers(-5, 10**6) | st.integers(2**31 - 10**4, 2**31)
       | st.integers(10**17, 10**17 + 10**4)
       | st.sampled_from(_STRONG_PSEUDOPRIMES))
@example(41 * 41)
@example(2147483647)
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_sympy(n):
    from sympy import isprime

    from ordist.zlinalg import _is_prime

    assert _is_prime(n) == isprime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    from ordist.zlinalg import _is_prime

    assert not any(map(_is_prime, _STRONG_PSEUDOPRIMES))
    assert [q for q in range(100) if _is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        67, 71, 73, 79, 83, 89, 97]
