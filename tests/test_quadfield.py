"""Field, ideal, class group and residue unit tests.

The class number is cross-checked against the analytic formula
h = w/(2|D|) |sum chi_D(k) k| evaluated with sympy's Kronecker symbol,
an oracle fully independent of the form/ideal machinery.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import jacobi_symbol

from ordist.quadfield import (
    Modulus,
    ModulusTooLarge,
    NotPrime,
    NotSquarefree,
    OIdeal,
    make_field,
)
from ordist.quadfield import _ideal_from_lattice, _is_prime
from ordist.rayclass import residue_units
from ordist.zlinalg import OrdistError

from hnf_reference import ideal_from_lattice


def kronecker(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    t = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    if n == 1:
        return t
    return t * jacobi_symbol(a % n, n)


def class_number_formula(D: int, w: int) -> int:
    total = sum(kronecker(D, k) * k for k in range(1, abs(D)))
    h = w * abs(total) // (2 * abs(D))
    return h


SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23, 26, 30,
              31, 33, 35, 39, 47]


# -- field construction -------------------------------------------------------

def test_field_gaussian():
    K = make_field(1)
    assert (K.disc, K.w_K, K.h) == (-4, 4, 1)


def test_field_minus7():
    K = make_field(7)
    assert (K.disc, K.w_K, K.h) == (-7, 2, 1)


def test_field_minus3():
    K = make_field(3)
    assert (K.disc, K.w_K, K.h) == (-3, 6, 1)


def test_field_minus23():
    K = make_field(23)
    assert (K.disc, K.h) == (-23, 3)
    assert K.form_reps == ((1, 1, 6), (2, -1, 3), (2, 1, 3))
    assert K.class_group.invariant_factors == (3,)


def test_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        make_field(12)


@pytest.mark.parametrize("d", SQUAREFREE)
def test_class_number_matches_analytic_formula(d):
    K = make_field(d)
    assert K.h == class_number_formula(K.disc, K.w_K)
    assert K.class_group.order == K.h


def test_element_arithmetic():
    K = make_field(7)  # omega = (1+sqrt(-7))/2, omega^2 = omega - 2
    w2 = K.elt_mul((0, 1), (0, 1))
    assert w2 == (-2, 1)
    assert K.elt_norm((0, 1)) == 2
    assert K.elt_trace((0, 1)) == 1
    u = (3, -2)
    assert K.elt_norm(u) == K.elt_mul(u, K.elt_conj(u))[0]
    assert K.elt_mul(u, K.elt_conj(u))[1] == 0


def test_zeta_orders():
    for d, w in [(3, 6), (1, 4), (7, 2)]:
        K = make_field(d)
        z = K.zeta()
        powers = [(1, 0)]
        for _ in range(w):
            powers.append(K.elt_mul(powers[-1], z))
        assert powers[w] == (1, 0)
        assert (1, 0) not in powers[1:w]


# -- splitting ----------------------------------------------------------------

def test_splitting_in_minus7():
    K = make_field(7)
    kind, ps = K.splitting_type(11)
    assert kind == "split" and len(ps) == 2
    assert ps[0].b < ps[1].b
    kind, ps = K.splitting_type(7)
    assert kind == "ramified" and ps[0].norm() == 7
    kind, ps = K.splitting_type(3)
    assert kind == "inert" and ps[0].norm() == 9


def test_splitting_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(7).splitting_type(12)


def test_split_primes_multiply_to_p():
    K = make_field(7)
    _, (p, pbar) = K.splitting_type(11)
    assert p.norm() == pbar.norm() == 11
    prod = p.multiply(pbar)
    assert prod == K.principal_ideal((11, 0))
    assert prod.norm() == 121


def test_prime_splitting_against_symbol():
    for d in (7, 5, 15, 23):
        K = make_field(d)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            kind, ids = K.splitting_type(p)
            sym = kronecker(K.disc, p)
            want = {1: "split", -1: "inert", 0: "ramified"}[sym]
            assert kind == want
            # ideal data is consistent
            for P in ids:
                assert P.is_prime()
                assert P.rational_prime() == p


def test_gcd_of_distinct_primes_is_unit():
    K = make_field(7)
    _, (p7,) = K.splitting_type(7)
    _, (p11, _) = K.splitting_type(11)
    g = p7.gcd(p11)
    assert g == K.unit_ideal()
    assert p7.is_coprime(p11)
    assert not p7.is_coprime(p7)


def test_ideal_multiplication_unit():
    K = make_field(7)
    _, (p11, _) = K.splitting_type(11)
    assert p11.multiply(K.unit_ideal()) == p11


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 15, 23]),
       st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_norm_multiplicativity(d, i, j, k):
    K = make_field(d)
    primes = []
    for p in (2, 3, 5, 7, 11, 13):
        _, ids = K.splitting_type(p)
        primes.extend(ids)
    A = primes[i % len(primes)]
    B = primes[j % len(primes)].multiply(primes[k % len(primes)])
    assert A.multiply(B).norm() == A.norm() * B.norm()
    assert A.multiply(B) == B.multiply(A)


# the fields of the benchmark survey: h 1-3, w 2/4/6
SURVEY_FIELDS = (1, 3, 7, 11, 15, 19, 23)


def _lattice_outcome(reduce, K, gens):
    """(content, a, b) of the ideal gens span, or the error message."""
    try:
        I = reduce(K, gens)
    except OrdistError as exc:
        return str(exc)
    return (I.content, I.a, I.b)


# small entries, and entries past 2^63
_entries = st.one_of(st.integers(-12, 12), st.integers(2 ** 63, 2 ** 70),
                     st.integers(-2 ** 70, -2 ** 63))


@st.composite
def _lattice_generators(draw):
    """A field and 2-4 generator rows (x, y): free rows, rows with zero
    omega coefficient, multiples of one vector (a degenerate span), or
    combinations of the basis of an ideal, its basis sometimes among
    them."""
    K = make_field(draw(st.sampled_from(SURVEY_FIELDS)))
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("free", "free", "axis", "line",
                                 "ideal", "ideal", "ideal")))
    if kind == "free":
        return K, [(draw(_entries), draw(_entries)) for _ in range(n)]
    if kind == "axis":
        return K, [(draw(_entries), 0) for _ in range(n)]
    if kind == "line":
        x, y = draw(_entries), draw(_entries)
        return K, [(k * x, k * y) for k in draw(
            st.lists(_entries, min_size=n, max_size=n))]
    q = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    P = draw(st.sampled_from(K.splitting_type(q)[1]))
    I = OIdeal(K, P.content * draw(st.integers(1, 4)), P.a, P.b)
    (x1, y1), (x2, y2) = I.lattice_rows()
    rows = [(k * x1 + j * x2, k * y1 + j * y2) for k, j in draw(
        st.lists(st.tuples(_entries, _entries), min_size=n, max_size=n))]
    if draw(st.booleans()):
        rows += I.lattice_rows()
    return K, rows


@settings(max_examples=300, deadline=None)
@given(_lattice_generators())
def test_ideal_lattice_matches_hnf_reference(case):
    K, gens = case
    assert _lattice_outcome(_ideal_from_lattice, K, gens) \
        == _lattice_outcome(ideal_from_lattice, K, gens)


@pytest.mark.parametrize("d", SURVEY_FIELDS)
def test_ideal_lattice_matches_hnf_reference_on_prime_ideals(d):
    # every product and gcd of two prime ideals of norm at most 40
    K = make_field(d)
    primes = [P for q in range(2, 41) if _is_prime(q)
              for P in K.splitting_type(q)[1] if P.norm() <= 40]
    for P in primes:
        for Q in primes:
            product = [K.elt_mul(u, v) for u in P.lattice_rows()
                       for v in Q.lattice_rows()]
            for gens in (product, P.lattice_rows() + Q.lattice_rows()):
                got = _lattice_outcome(_ideal_from_lattice, K, gens)
                assert isinstance(got, tuple)
                assert got == _lattice_outcome(ideal_from_lattice, K, gens)


# -- principality -------------------------------------------------------------

def test_unit_ideal_generator():
    K = make_field(7)
    g = K.unit_ideal().is_principal_generator()
    # (x + y sqrt(D))/2 with norm 1: x = +-2, y = 0
    assert g is not None and (g[0], g[1]) in ((2, 0), (-2, 0))


def test_norm19_generator_in_minus15():
    K = make_field(15)
    _, ids = K.splitting_type(19)
    g = ids[0].is_principal_generator()
    assert g is not None
    x, y = g
    assert (x * x + 15 * y * y) // 4 == 19  # 19 = 2^2 + 15, element 2+sqrt(-15)
    assert abs(y) == 2 and abs(x) == 4


def test_p2_not_principal_in_minus5():
    K = make_field(5)
    _, ids = K.splitting_type(2)
    assert ids[0].is_principal_generator() is None


def _small_ideals(K, bound):
    D = K.disc
    out = []
    for n in range(1, bound + 1):
        c = 1
        while c * c <= n:
            if n % (c * c) == 0:
                a = n // (c * c)
                for b in range(2 * a):
                    if (b - D) % 2 == 0 and (b * b - D) % (4 * a) == 0:
                        out.append(OIdeal(K, c, a, b))
            c += 1
    return out


@pytest.mark.parametrize("d", [7, 5, 23])
def test_principality_matches_class_triviality(d):
    K = make_field(d)
    for I in _small_ideals(K, 200):
        gen = I.is_principal_generator()
        trivial = K.ideal_class(I) == K.class_group.zero()
        assert (gen is not None) == trivial
        if gen is not None:
            x, y = gen
            assert (x * x - K.disc * y * y) // 4 == I.norm()


def test_ideal_class_is_multiplicative():
    K = make_field(23)
    ideals = _small_ideals(K, 30)
    G = K.class_group
    for I in ideals[:12]:
        for J in ideals[:12]:
            assert K.ideal_class(I.multiply(J)) == G.add(
                K.ideal_class(I), K.ideal_class(J))


# -- moduli -------------------------------------------------------------------

def _modulus(K, spec):
    """spec: list of (rational prime, index or None, exponent)."""
    parts = []
    for p, idx, e in spec:
        _, ids = K.splitting_type(p)
        parts.append((ids[idx or 0], e))
    return Modulus(K, tuple(parts))


def test_modulus_requires_prime():
    K = make_field(7)
    _, (p11, _) = K.splitting_type(11)
    square = p11.multiply(p11)
    with pytest.raises(NotPrime):
        Modulus(K, ((square, 1),))


def test_modulus_divisor_order():
    K = make_field(7)
    m = _modulus(K, [(7, None, 1), (11, 0, 1), (23, 0, 1)])
    divs = m.divisors()
    assert len(divs) == 8
    sizes = [d.n_primes for d in divs]
    assert sizes == sorted(sizes)
    assert divs[0].is_one() and divs[-1] == m
    # order refines divisibility
    for i, u in enumerate(divs):
        for j, v in enumerate(divs):
            if u.divides(v) and u != v:
                assert i < j


def test_modulus_phi_and_norm():
    K = make_field(7)
    m = _modulus(K, [(7, None, 1), (11, 0, 1), (23, 0, 1)])
    assert m.norm() == 7 * 11 * 23
    assert m.phi() == 6 * 10 * 22
    m2 = _modulus(K, [(11, 0, 2)])
    assert m2.phi() == 110


def test_modulus_without_and_vp():
    K = make_field(7)
    m = _modulus(K, [(7, None, 1), (11, 0, 2)])
    _, (p11, _) = K.splitting_type(11)
    assert m.v_p(p11) == 2
    m2 = m.without(p11)
    assert m2.n_primes == 1 and m2.v_p(p11) == 0


# -- residue units ------------------------------------------------------------

def test_units_mod_ramified_7():
    K = make_field(7)
    g, dlog, mu = residue_units(K, _modulus(K, [(7, None, 1)]))
    assert g.invariant_factors == (6,)
    assert len(dlog) == 6
    assert len(mu) == 2 and mu[0] == (0,) and mu[1] != (0,)


def test_units_mod_split_11():
    K = make_field(7)
    g, dlog, mu = residue_units(K, _modulus(K, [(11, 0, 1)]))
    assert g.invariant_factors == (10,)


def test_units_mod_inert_3():
    K = make_field(7)
    g, dlog, mu = residue_units(K, _modulus(K, [(3, None, 1)]))
    assert g.invariant_factors == (8,)


def test_units_multiplicative_over_coprime_parts():
    K = make_field(7)
    m = _modulus(K, [(7, None, 1), (11, 0, 1)])
    g, _, _ = residue_units(K, m)
    assert g.order == 60
    # formula per prime power against direct enumeration
    m2 = _modulus(K, [(11, 0, 2)])
    g2, _, _ = residue_units(K, m2)
    assert g2.order == m2.phi() == 110


def test_units_prime_square_structure():
    K = make_field(7)
    g, _, _ = residue_units(K, _modulus(K, [(2, 0, 2)]))
    # (O/p^2)^x for split p over 2: order 2
    assert g.order == 2


def test_mu_image_injective_when_coprime():
    K = make_field(3)  # w = 6
    for spec in ([(7, 0, 1)], [(13, 0, 1)]):
        m = _modulus(K, spec)
        assert math.gcd(m.norm(), K.w_K) == 1
        g, dlog, mu = residue_units(K, m)
        assert len(set(mu)) == 6


def test_mu_image_for_gaussian():
    K = make_field(1)  # w = 4
    m = _modulus(K, [(5, 0, 1)])
    g, dlog, mu = residue_units(K, m)
    assert g.invariant_factors == (4,)
    assert len(set(mu)) == 4


def test_modulus_too_large():
    K = make_field(7)
    _, ids = K.splitting_type(1009)
    big = Modulus(K, ((ids[0], 3),))
    with pytest.raises(ModulusTooLarge):
        residue_units(K, big)


def test_modulus_too_large_shows_only_a_short_norm():
    # 2^(10^6) has 301,030 digits, past what Python prints
    K = make_field(7)
    two = K.splitting_type(2)[1][0]
    with pytest.raises(ModulusTooLarge, match="^norm exceeds 1000000$"):
        residue_units(K, Modulus(K, ((two, 10 ** 6),)))
    with pytest.raises(ModulusTooLarge, match="^norm 1048576 exceeds 1000000$"):
        residue_units(K, Modulus(K, ((two, 20),)))
    Modulus(K, ((two, 19),)).check_norm()


def test_dlog_is_homomorphism():
    K = make_field(7)
    m = _modulus(K, [(7, None, 1), (11, 0, 1)])
    g, dlog, _ = residue_units(K, m)
    nid = m.ideal()
    from ordist.quadfield import _residue_reduce
    residues = list(dlog)
    for u in residues[:8]:
        for v in residues[:8]:
            w = _residue_reduce(nid, K.elt_mul(u, v))
            assert dlog[w] == g.add(dlog[u], dlog[v])


def test_modulus_labels():
    K = make_field(7)
    m = _modulus(K, [(7, None, 1), (11, 0, 1), (23, 0, 1)])
    assert m.label() == "q:7,p:11:0,p:23:0"
    assert Modulus.one(K).label() == "(1)"
