"""Oracle and property tests for the integer linear algebra core."""

import itertools
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from ordist.zlinalg import (
    AbGroup,
    AbHom,
    CSRMatrix,
    GeneratorsInsufficient,
    IntMatrix,
    LinalgError,
    NotSubLattice,
    _discover,
    cokernel,
    rational_kernel,
    smith_coordinates,
    snf_invariants,
    subquotient_torsion,
)

import numpy_linalg as nl
from dense_transform import _layered_elimination, modular_rank
from hnf_reference import hnf, hnf_basis


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
    A = IntMatrix([[2, 4], [6, 8]])
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


def _check_smith_coordinates(rows, ambient):
    """The contract of smith_coordinates on the relation rows: the
    invariants, relations to 0, and back @ to the identity in the group
    (exact on the free coordinates).  Returns (group, to, back), to and
    back as object arrays."""
    group, to, back = smith_coordinates(
        IntMatrix(rows, ambient), ambient)
    inv = group.invariant_factors
    nonzero = minor_gcd_invariants(rows, ambient) if rows else []
    assert inv == tuple(d for d in nonzero if d != 1) \
        + (0,) * (ambient - len(nonzero))
    k = len(inv)
    assert len(to) == ambient and all(len(r) == k for r in to)
    assert len(back) == k and all(len(r) == ambient for r in back)
    to = np.array(to, dtype=object).reshape(ambient, k)
    back = np.array(back, dtype=object).reshape(k, ambient)

    def reduce(Z):
        return [[x % d if d else x for x, d in zip(r, inv)]
                for r in Z.tolist()]

    rel = np.array(rows, dtype=object).reshape(len(rows), ambient)
    assert reduce(rel @ to) == [[0] * k] * len(rows)
    assert reduce(back @ to) == np.identity(k, dtype=int).tolist()
    return group, to, back


def test_smith_coordinates_diag_6_4():
    group, to, back = _check_smith_coordinates([[6, 0], [0, 4]], 2)
    assert group.invariant_factors == (2, 12)
    # e_1 has order 6 and e_2 order 4 in Z/2 x Z/12
    assert [group.element_order(tuple(r)) for r in
            np.identity(2, dtype=object) @ to % [2, 12]] == [6, 4]


def test_smith_coordinates_exact():
    group, to, back = _check_smith_coordinates(
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
    assert group.invariant_factors == (2, 2, 156)
    # free factors: their coordinates are exact integers
    group, to, back = _check_smith_coordinates([[2, 4, 4]], 3)
    assert group.invariant_factors == (2, 0, 0)
    group, to, back = _check_smith_coordinates([], 2)
    assert group.invariant_factors == (0, 0)
    assert (to @ back).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(LinalgError):
        smith_coordinates([[1, 2, 3]], 2)


def test_smith_check_refuses_a_pair_off_the_inverse(monkeypatch):
    import ordist.zlinalg as zl
    # R by its columns, R_inv by its rows: the diagonal of the product
    # is 1, one entry off it is not 0
    assert zl._is_inverse([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert not zl._is_inverse([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    assert not zl._is_inverse([[1, 2], [0, 1]], [[1, 0], [0, 1]])
    # a Smith pass whose inverse drifts off R by one off-diagonal entry
    core = zl._snf_core

    def drifting(M, R=None, R_inv=None):
        diag = core(M, R, R_inv)
        if R_inv is not None:
            R_inv[0][1] += 1
        return diag

    monkeypatch.setattr(zl, "_snf_core", drifting)
    with pytest.raises(LinalgError, match="not unimodular"):
        smith_coordinates([[2, 0], [0, 3]], 2)


def test_cokernel_free():
    g = cokernel(IntMatrix.zeros(0, 3), 3)
    assert g.invariant_factors == (0, 0, 0)
    assert g.rank == 3


def test_cokernel_diagonal():
    g = cokernel(IntMatrix([[2, 0], [0, 3]]), 2)
    assert g.invariant_factors == (6,)


def test_cokernel_z2():
    g = cokernel(IntMatrix([[1, 1], [1, -1]]), 2)
    assert g.invariant_factors == (2,)


def test_rational_kernel_difference():
    assert rational_kernel([[1, -1]]) == [(1, 1)]


def test_rational_kernel_identity():
    assert rational_kernel(IntMatrix.identity(3)) == []


def test_rational_kernel_saturated():
    assert hnf_basis(rational_kernel([[2, 4]])) == [(2, -1)]


def test_rational_kernel_fractions():
    assert hnf_basis(rational_kernel([[3, 2]])) == [(2, -3)]


def test_from_rows_rejects_floats():
    # a parse to int64 would truncate this to [[0, 2]]
    with pytest.raises(LinalgError, match="integers"):
        IntMatrix([[0.5, 2.7]])


def test_rational_kernel_rejects_fractions():
    # a parse to int64 would see a zero row, whose kernel is everything
    with pytest.raises(LinalgError, match="integers"):
        rational_kernel([[Fraction(1, 2), Fraction(1, 3)]])


def test_from_rows_past_int64_stays_exact():
    # numpy parses this row as float64
    big = IntMatrix([[2 ** 63, -1]])
    assert big.entries == ((2 ** 63, -1),)
    assert all(type(x) is int for r in big.entries for x in r)


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


# _discover, the structure core of every group of the package, on the
# label permutations of a small black box (the test names are those of
# the ab_discover tests these replaced, when the class group had its own
# labelling path)

def _perms(elements, mul, gens) -> list[list[int]]:
    """Multiplication by each generator, on the positions in elements."""
    label = {e: i for i, e in enumerate(elements)}
    return [[label[mul(e, g)] for e in elements] for g in gens]


def _add6(a, b):
    return (a + b) % 6


def test_ab_discover_trivial():
    g, bfs, coords = _discover(1, [], 0)
    assert g.is_trivial
    assert bfs == [0] and coords[0] == ()


def test_ab_discover_z6():
    g, _, coords = _discover(6, _perms(range(6), _add6, [1]), 0)
    assert g.invariant_factors == (6,)
    orders = {g.element_order(coords[x]) for x in range(6)}
    assert orders == {1, 2, 3, 6}


def test_ab_discover_klein():
    def mul(a, b):
        return (a[0] ^ b[0], a[1] ^ b[1])
    els = [(0, 0), (1, 0), (0, 1), (1, 1)]
    g, bfs, coords = _discover(4, _perms(els, mul, [(1, 0), (0, 1)]), 0)
    assert g.invariant_factors == (2, 2)
    assert coords[0] == (0, 0)
    assert sorted(bfs) == [0, 1, 2, 3] and len(set(coords)) == 4


def test_ab_discover_insufficient():
    with pytest.raises(GeneratorsInsufficient):
        _discover(6, _perms(range(6), _add6, [2]), 0)


def test_ab_discover_closure_exceeds_order():
    with pytest.raises(LinalgError, match="closure exceeds declared order"):
        _discover(3, _perms(range(6), _add6, [1]), 0)


def test_subquotient_rejects_dependent_rows():
    with pytest.raises(LinalgError, match="dependent"):
        subquotient_torsion([(1, 0), (2, 0)], [(2, 0)])


# -- AbGroup / AbHom ---------------------------------------------------------

def test_abgroup_validation():
    with pytest.raises(LinalgError):
        AbGroup((2, 3))
    with pytest.raises(LinalgError):
        AbGroup((1,))
    with pytest.raises(LinalgError):
        AbGroup((0, 2))


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
    coords = g.coordinates
    assert len(coords) == g.order and {len(r) for r in coords} <= {len(inv)}
    assert [tuple(r) for r in coords] == g.elements()
    assert g.indices(coords) == list(range(g.order))
    assert list(g.radix()) == nl.indices(g, np.eye(len(inv),
                                                  dtype=np.int64)).tolist()
    # translation on indices agrees with add and index_of
    rng = random.Random(len(inv))
    for _ in range(5):
        s = tuple(rng.randrange(d) for d in inv)
        moved = g.translation(s)
        assert moved == [g.index_of(g.add(e, s)) for e in g.elements()]
        assert moved == nl.indices(g, nl.coordinates(g),
                                   np.array(s, dtype=np.int64)).tolist()


def test_abgroup_index_arrays_reject_infinite():
    with pytest.raises(LinalgError):
        AbGroup((2, 0)).coordinates
    with pytest.raises(LinalgError):
        AbGroup((0,)).radix()
    with pytest.raises(LinalgError):
        AbGroup((3, 0)).translation((1, 0))


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
    # proj after incl, on indices: the index images compose
    comp = [proj.index_image[g] for g in incl.index_image]
    assert comp == [mid.index_of(proj.apply(incl.apply(x)))
                    for x in mid.elements()]
    assert comp[mid.index_of((1,))] == mid.index_of((0,))


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
    import ordist.zlinalg as zl
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zl, "_VERIFY_DIM", 0)  # the self-check on every matrix
        inv = snf_invariants(IntMatrix(rows))
    assert inv == minor_gcd_invariants(rows, len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_smith_coordinates_contract(rows):
    _check_smith_coordinates(rows, len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_hnf_membership_and_lattice_stability(rows):
    H, U = hnf(IntMatrix(rows))
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
    base = cokernel(IntMatrix(rows), amb)
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
    assert cokernel(IntMatrix(mixed), amb) == base


@settings(max_examples=60, deadline=None)
@given(matrices(5))
def test_rational_kernel_saturation_and_exactness(rows):
    ker = rational_kernel(rows)
    amb = len(rows[0])
    for v in ker:
        assert all(sum(r[j] * v[j] for j in range(amb)) == 0 for r in rows)
    if ker:
        import ordist.zlinalg as zl
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zl, "_VERIFY_DIM", 0)
            inv = snf_invariants(IntMatrix(ker))
        assert all(d == 1 for d in inv)
    nz = [r for r in rows if any(r)]
    rank = len(hnf_basis(nz)) if nz else 0
    assert len(ker) == amb - rank


def _times(x, rows):
    return [sum(a * r[j] for a, r in zip(x, rows)) for j in range(len(rows[0]))]


@settings(max_examples=60, deadline=None)
@given(matrices(5), st.data())
def test_subquotient_membership_matches_numpy_reference(rows, data):
    # b = x A lies in the row lattice; b + e_j lies in it exactly when
    # the reference's back substitution on its echelon pivots finds it
    basis = hnf_basis(rows)
    if not basis:
        return
    x = data.draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
    b = _times(x, rows)
    assert subquotient_torsion(basis, [b]).rank == len(basis) - any(b)
    b[data.draw(st.integers(0, len(b) - 1))] += 1
    krows, cols = nl._object_rows(rows)
    pivots, _ = nl._echelon(krows, 0, cols)
    want = nl._back_substitute(pivots, np.array(b, dtype=object))
    try:
        subquotient_torsion(basis, [b])
    except NotSubLattice:
        assert want is None
    else:
        assert want is not None


@settings(max_examples=40, deadline=None)
@given(matrices(4))
def test_subquotient_full_lattice_matches_cokernel(rows):
    amb = len(rows[0])
    full = [[1 if i == j else 0 for j in range(amb)] for i in range(amb)]
    assert subquotient_torsion(full, rows) == cokernel(IntMatrix(rows), amb)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_ab_discover_recovers_product_structure(moduli):
    n = len(moduli)
    group = cokernel(IntMatrix(
        [[m if i == j else 0 for j in range(n)] for i, m in enumerate(moduli)],
        n), n)

    def mul(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    gens = [tuple((1 if i == j else 0) % m for j, m in enumerate(moduli))
            for i in range(len(moduli))]
    els = list(itertools.product(*map(range, moduli)))
    found, bfs, coords = _discover(group.order, _perms(els, mul, gens), 0)
    assert found == group
    assert sorted(bfs) == list(range(group.order))
    assert len(set(coords)) == group.order


def test_snf_modular_verification_pass_runs(monkeypatch):
    import ordist.zlinalg as zl
    # force the verification path on a small matrix
    monkeypatch.setattr(zl, "_VERIFY_DIM", 1)
    inv = snf_invariants(IntMatrix([[4, 0], [0, 90]]))
    assert inv == [2, 180]


def test_large_dim_triggers_verification(monkeypatch):
    import ordist.zlinalg as zl
    calls = []
    orig = zl._local_valuations

    def spy(A, p, K):
        assert isinstance(A, CSRMatrix)
        calls.append(p)
        return orig(A, p, K)

    monkeypatch.setattr(zl, "_local_valuations", spy)
    monkeypatch.setattr(zl, "_VERIFY_DIM", 10)
    big = IntMatrix(
        [[6 if i == j else 0 for j in range(12)] for i in range(12)])
    assert snf_invariants(big) == [6] * 12
    assert sorted(calls) == [2, 3]


def test_verification_detects_wrong_invariants(monkeypatch):
    import ordist.zlinalg as zl
    # corrupt the local pass to simulate a bug: drop one pivot valuation
    orig = zl._local_valuations
    monkeypatch.setattr(zl, "_local_valuations",
                        lambda A, p, K: orig(A, p, K)[:-1])
    monkeypatch.setattr(zl, "_VERIFY_DIM", 1)
    with pytest.raises(LinalgError):
        snf_invariants(IntMatrix([[4, 0], [0, 90]]))


def test_unit_prereduce_matches_plain_snf():
    from ordist.zlinalg import _unit_prereduce, snf_invariants

    rng = random.Random(11)
    for trial in range(12):
        n = rng.randrange(4, 12)
        m = rng.randrange(4, 12)
        rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        mat = IntMatrix(rows, m)
        ones, rest = _unit_prereduce(mat)
        fast = sorted([1] * ones + snf_invariants(rest))
        plain = sorted(snf_invariants(mat))
        assert fast == plain, (trial, fast, plain)


def test_csr_matrix_round_trips_and_rejects_bad_rows():
    for a in (np.array([[0, 2, 0], [0, 0, 0], [-1, 0, 5]]),
              np.array([[1 << 63, 0], [0, -3]], dtype=object),
              np.zeros((0, 4), dtype=np.int64)):
        sp = CSRMatrix.from_dense(a, a.shape[1])
        mat = IntMatrix(a, a.shape[1])
        assert (sp.rows, sp.cols) == (mat.rows, mat.cols) == a.shape
        assert all(type(x) is int for x in sp.indptr + sp.indices + sp.data)
        assert np.array_equal(nl.dense(sp), a)
        assert sp.entries == mat.entries
        assert sp == CSRMatrix.from_dense(a.copy(), a.shape[1])
        assert cokernel(sp, a.shape[1]) == cokernel(mat, a.shape[1])
    assert CSRMatrix([0, 1], [0], [1], 2) != CSRMatrix([0, 1], [1], [1], 2)
    for ptr, idx, val in (([0, 2], [1, 0], [1, 1]),  # columns not ascending
                          ([0, 1], [0], [0]),  # a stored zero
                          ([0, 1], [2], [1]),  # column out of range
                          ([0, 2], [0], [1]),  # pointers past the entries
                          ([1, 1], [0], [1])):  # not starting at 0
        with pytest.raises(LinalgError):
            CSRMatrix(ptr, idx, val, 2)
    with pytest.raises(LinalgError, match="negative matrix dimensions"):
        CSRMatrix((0, 0), (), (), -3)  # one empty row, -3 columns
    # a row may start at a smaller column than the last row ended
    assert CSRMatrix([0, 1, 2], [1, 0], [1, 1], 2).entries == ((0, 1), (1, 0))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_csr_matrix_from_triplets_text_and_dot(rows, cols, data):
    # repeated positions add up, zero sums vanish, and the entries and
    # the product are those of the dense matrix; entries may pass 2^63
    n = data.draw(st.integers(0, 12)) if rows and cols else 0
    big = (1 << 63) + 1
    r = [data.draw(st.integers(0, rows - 1)) for _ in range(n)]
    c = [data.draw(st.integers(0, cols - 1)) for _ in range(n)]
    v = [data.draw(st.sampled_from([1, -1, 2, big])) for _ in range(n)]
    dense = [[0] * cols for _ in range(rows)]
    for i, j, x in zip(r, c, v):
        dense[i][j] += x
    want = IntMatrix(dense, cols)
    vals = np.array(v, dtype=object if big in v else np.int64)
    got = CSRMatrix.from_triplets(rows, cols, r, c, vals)
    assert got == CSRMatrix.from_dense(want.entries, want.cols)
    assert got.entries == want.entries
    x = [data.draw(st.sampled_from([0, 1, -3, big])) for _ in range(cols)]
    assert got.dot(np.array(x, dtype=object)) == \
        [sum(a * b for a, b in zip(row, x)) for row in dense]


def test_cokernel_fast_path_on_coset_style_matrix():
    rows = []
    n = 60
    for step in (2, 3, 5):
        for start in range(step):
            row = [1 if i % step == start else 0 for i in range(n)]
            rows.append(row)
    mat = IntMatrix(rows, n)
    plain = snf_invariants(mat)
    want = AbGroup(tuple(d for d in plain if d > 1)
                   + (0,) * (n - len(plain)))
    assert cokernel(mat, n) == want


def test_modular_rank_known_values():
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
    mat = IntMatrix(rows, 3)
    exact = len(snf_invariants(mat))
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
    mat = IntMatrix(rows, cols)
    got = cokernel(mat, cols)
    assert got.torsion == tuple(d for d in factors if d > 1)
    assert got.rank == cols - len(factors)
    # the Smith elimination alone, without the unit pre-reduction
    assert snf_invariants(mat) == factors


@given(_int_matrices(), st.sampled_from([2, 3, 5]))
@example([[2, 1], [4, 3]], 2)  # a column left without pivot, then updated
@settings(max_examples=80, deadline=None)
def test_local_valuations_match_sympy(rows, p):
    from ordist.zlinalg import _local_valuations, _val

    want = sorted(_val(d, p) for d in _sympy_factors(rows))
    mat = CSRMatrix.from_dense(rows, len(rows[0]))
    assert _local_valuations(mat, p, max(want, default=0) + 2) == want


@given(_int_matrices())
@example([[2, 1], [4, 3]])
@settings(max_examples=80, deadline=None)
def test_local_valuations_match_dense_reference(rows):
    # every p < 30 dividing S = 30 * (product of the invariant factors),
    # with K = v_p(S) + 2, as oracle (b) chooses them; S may have prime
    # factors past 2^60, too large to find by trial division
    from ordist.zlinalg import _local_valuations, _val

    mat = IntMatrix(rows, len(rows[0]))
    S = 30 * math.prod(_sympy_factors(rows))
    for p in (q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if S % q == 0):
        K = _val(S, p) + 2
        assert _local_valuations(CSRMatrix.from_dense(mat.entries), p, K) \
            == _layered_elimination(mat, p, K)


@given(_int_matrices(), st.sampled_from([2, 3, 5, 2147483647, (1 << 61) - 1]))
@example([[1, -1], [-1, 1]], (1 << 61) - 1)  # products beyond int64
@settings(max_examples=80, deadline=None)
def test_modular_rank_matches_sympy(rows, p):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    want = DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()
    assert modular_rank(IntMatrix(rows, len(rows[0])), p) == want


def test_sympy_strategy_reaches_the_object_path():
    # no dtype is left to check: the strategy must still draw entries
    # past int64 on both sides, where the array code left int64 for
    # object arrays; the first such draw will do, unshrunk
    first = settings(phases=[Phase.generate], database=None)
    for sign in (1, -1):
        rows = find(_int_matrices(),
                    lambda rows: any(sign * x >= 1 << 63
                                     for r in rows for x in r),
                    settings=first)
        assert max(sign * x for r in rows for x in r) >= 1 << 63


@st.composite
def _reference_cases(draw):
    """The sympy matrices, and sometimes a zero row or a zero column
    added, or no rows at all."""
    rows = draw(_int_matrices())
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(rows[0])))
        rows = [r[:j] + [0] + r[j:] for r in rows]
    if draw(st.integers(0, 9)) == 0:
        return [], len(rows[0])
    return rows, len(rows[0])


@given(_reference_cases())
@example(([[1, 1 << 62], [1 << 62, 1]], 2))
@example(([], 3))
@example(([[0, 0], [0, 0]], 2))
@settings(max_examples=80, deadline=None)
def test_list_linalg_matches_numpy_reference(case):
    # the list code against the numpy code it replaced, routine by
    # routine, and the invariant factors against sympy
    rows, cols = case
    mat = IntMatrix(rows, cols)
    factors = _sympy_factors(rows) if rows else []
    assert snf_invariants(mat) == nl.snf_invariants(mat) == factors
    group, to, back = smith_coordinates(mat, cols)
    ref = nl.smith_coordinates(mat, cols)
    assert group == ref[0]
    if max(map(abs, itertools.chain([0], *rows))) < 1 << 53:
        # the array code took its pivots from a float scan, which is
        # exact below 2^53, so both pick the same ones
        assert (to, back) == tuple(tuple(map(tuple, a.tolist()))
                                   for a in ref[1:])
    assert hnf_basis(rational_kernel(mat)) == nl.rational_kernel(mat)
    basis = hnf_basis(rows)
    if basis:
        doubled = [[2 * x for x in r] for r in rows]
        assert subquotient_torsion(basis, doubled) \
            == nl.subquotient_torsion(basis, doubled) \
            == AbGroup((2,) * len(basis))
    eye = [[int(i == j) for j in range(cols)] for i in range(cols)]
    assert subquotient_torsion(eye, rows) == nl.subquotient_torsion(eye, rows) \
        == cokernel(mat, cols)


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

    from ordist.quadfield import _is_prime

    assert _is_prime(n) == isprime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    from ordist.quadfield import _is_prime

    assert not any(map(_is_prime, _STRONG_PSEUDOPRIMES))
    assert [q for q in range(100) if _is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        67, 71, 73, 79, 83, 89, 97]
