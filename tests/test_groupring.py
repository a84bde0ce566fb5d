"""Group-ring elements, averaged Frobenius, and inertia-trace ideals.

The quotient ranks are cross-checked against the character-count
formula sum_{u | n} (-1)^{d(u, n)} #G_u with d(u, n) the number of
primes of n missing from u, an oracle independent of the lattice
reduction that produces the quotient.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import fraction_groupring as ref
from ordist import groupring
from ordist.groupring import (
    GroupRingElt,
    NotCoprimeToW,
    alpha,
    gal_h_quotient,
    gal_h_quotient_torsion,
    p_star,
    trace,
    trace_ideal,
    trace_ideal_quotient,
    transfer,
)
from ordist.quadfield import Modulus, make_field
from ordist.rayclass import Subgroup, ray_class_group
from ordist.zlinalg import AbGroup
from test_distribution import _TRANSFORM_LEVELS, _transform_level


def _modulus(K, spec):
    parts = []
    for p, idx, e in spec:
        _, ids = K.splitting_type(p)
        parts.append((ids[idx or 0], e))
    return Modulus(K, tuple(parts))


def _prime(K, p, idx=None):
    _, ids = K.splitting_type(p)
    return ids[idx or 0]


@pytest.fixture(scope="module")
def K7():
    return make_field(7)


@pytest.fixture(scope="module")
def triple(K7):
    return ray_class_group(K7, _modulus(K7, [(7, None, 1), (11, 0, 1),
                                             (23, 0, 1)]))


# -- ring arithmetic ----------------------------------------------------------

def test_trace_of_identity_is_one():
    G = AbGroup((4,))
    x = trace([(0,)], G)
    assert x == GroupRingElt.one(G)
    assert x.num.sum() == x.den == 1


def test_trace_augmentation_counts():
    G = AbGroup((4,))
    x = trace(G.elements(), G)
    assert x.num.tolist() == [1, 1, 1, 1]
    assert x.den == 1


def test_subgroup_trace_idempotent_up_to_order():
    G = AbGroup((2, 4))
    H = Subgroup.generated(G, [(1, 2)])
    s = trace(H)
    assert s * s == GroupRingElt(G, s.num * H.order)


def test_ring_is_commutative_and_distributive():
    G = AbGroup((6,))
    a = GroupRingElt(G, [0, 4, 0, -1, 0, 0], 2)  # 2 [1] - 1/2 [3]
    b = GroupRingElt(G, [0, 0, 1, 0, 0, 3])
    c = GroupRingElt.one(G) - b
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a) == GroupRingElt(G, [0] * 6)
    assert (a - a).den == 1


def test_translate_and_rows():
    G = AbGroup((3,))
    x = GroupRingElt(G, [1, 2, 0])
    y = x.translate((1,))
    assert y.num.tolist() == [0, 1, 2]
    assert x.translate((-1,)).num.tolist() == [2, 0, 1]
    # the pair is kept in lowest terms
    half = GroupRingElt(G, [2, 4, 0], 4)
    assert half.num.tolist() == [1, 2, 0]
    assert half.den == 2
    assert half == GroupRingElt(G, x.num, 2)
    for num, den in (([1, 2], 1), ([1, 2, 0], 0), ([0.5, 0, 0], 1)):
        with pytest.raises(groupring.OrdistError):
            GroupRingElt(G, np.array(num), den)


def test_product_past_int64_is_exact():
    G = AbGroup((6,))
    big = 1 << 62
    a = GroupRingElt(G, [big, big, 0, 0, 0, 3], 5)
    b = GroupRingElt(G, [0, 7 * big, 0, -1, 0, 0], 3)
    prod = a * b
    assert prod.num.dtype == object
    assert all(type(x) is int for x in prod.num)
    want = ref.GroupRingElt.make(G, {(i,): Fraction(int(x), 5)
                                     for i, x in enumerate(a.num)}) * \
        ref.GroupRingElt.make(G, {(i,): Fraction(int(x), 3)
                                  for i, x in enumerate(b.num)})
    assert (prod.num.tolist(), prod.den) == ref.to_num_den(want)
    assert max(abs(x) for x in prod.num) > 1 << 63
    # numerators that fit again come back as int64
    assert (prod - prod + a).num.dtype == np.int64


def test_mixing_groups_raises_under_optimize():
    # the group checks of +, * and transfer must hold even when python -O
    # strips assert statements
    code = textwrap.dedent("""
        from ordist.groupring import GroupRingElt, transfer
        from ordist.zlinalg import AbGroup, AbHom, OrdistError
        a = GroupRingElt.one(AbGroup((2,)))
        b = GroupRingElt.one(AbGroup((3,)))
        hom = AbHom(AbGroup((6,)), AbGroup((3,)), ((1,),))
        for name, op in (("add", lambda: a + b), ("mul", lambda: a * b),
                         ("transfer", lambda: transfer(a, hom))):
            try:
                op()
            except OrdistError:
                print(name, "raised")
        """)
    src = os.path.dirname(os.path.dirname(groupring.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:3] == \
        ["add raised", "mul raised", "transfer raised"]


# -- averaged Frobenius -------------------------------------------------------

def test_p_star_trivial_group(K7):
    G = ray_class_group(K7, Modulus.one(K7))
    assert p_star(G, _prime(K7, 11, 0)) == GroupRingElt.one(G.group)


def test_p_star_coprime_is_inverse_frobenius(K7):
    G = ray_class_group(K7, _modulus(K7, [(7, None, 1)]))
    lam, exact = G.frobenius(_prime(K7, 11, 0))
    assert exact
    star = p_star(G, _prime(K7, 11, 0))
    assert star == GroupRingElt.basis(G.group, G.group.neg(lam))


def test_p_star_full_inertia_averages(K7):
    G = ray_class_group(K7, _modulus(K7, [(11, 0, 1)]))
    star = p_star(G, _prime(K7, 11, 0))
    assert star == GroupRingElt(G.group, trace(Subgroup.whole(G.group)).num, 5)


def test_p_star_ramified_in_triple(triple, K7):
    p7 = _prime(K7, 7)
    star = p_star(triple, p7)
    T = triple.inertia(p7)
    assert sorted(star.num.tolist()) == [0] * 654 + [1] * 6
    assert star.den == 6
    # the trace absorbs any inertia translation of the Frobenius lift
    assert star * trace(T) == GroupRingElt(triple.group, star.num * T.order,
                                           star.den)


# -- alpha and the distribution compatibility ---------------------------------

def test_alpha_trivial_base(K7):
    G = ray_class_group(K7, Modulus.one(K7))
    one = Modulus.one(K7)
    assert alpha(one, one, G) == GroupRingElt.one(G.group)


def test_alpha_from_bottom_is_full_trace(triple, K7):
    a = alpha(Modulus.one(K7), triple.modulus, triple)
    assert a == trace(Subgroup.whole(triple.group))


def test_alpha_augmentation_vanishes(triple, K7):
    n = _modulus(K7, [(7, None, 1)])
    assert alpha(n, triple.modulus, triple).num.sum() == 0


def test_alpha_transfer_compatibility(triple, K7):
    n = _modulus(K7, [(7, None, 1)])
    mid = _modulus(K7, [(7, None, 1), (11, 0, 1)])
    G_mid = ray_class_group(K7, mid)
    a_mid = alpha(n, mid, G_mid)
    a_top = alpha(n, triple.modulus, triple)
    assert transfer(a_mid, triple.transition(mid)) == a_top


def test_alpha_transfer_compatibility_from_base(triple, K7):
    one = Modulus.one(K7)
    mid = _modulus(K7, [(11, 0, 1)])
    G_mid = ray_class_group(K7, mid)
    assert transfer(alpha(one, mid, G_mid), triple.transition(mid)) == \
        alpha(one, triple.modulus, triple)


# -- trace ideals -------------------------------------------------------------

def _quotient_rank_oracle(K, n):
    total = 0
    k = n.n_primes
    for u in n.divisors():
        d = k - u.n_primes
        total += (-1) ** d * ray_class_group(K, u).group.order
    return total


def test_quotient_of_trivial_modulus(K7):
    G = ray_class_group(K7, Modulus.one(K7))
    quot, z = trace_ideal_quotient(G)
    assert quot == AbGroup((0,))
    assert z == 1


def test_small_levels_torsion_free(K7):
    for spec in ([(7, None, 1)], [(11, 0, 1)], [(23, 0, 1)],
                 [(7, None, 1), (11, 0, 1)], [(11, 0, 1), (23, 0, 1)]):
        G = ray_class_group(K7, _modulus(K7, spec))
        _, z = trace_ideal_quotient(G)
        assert z == 1


def test_triple_torsion_exponent_two(triple):
    quot, z = trace_ideal_quotient(triple)
    assert z == 2
    assert all(d == 2 for d in quot.torsion)


def test_quotient_rank_formula(triple, K7):
    for u in triple.modulus.divisors():
        G = ray_class_group(K7, u)
        quot, _ = trace_ideal_quotient(G)
        assert quot.rank == _quotient_rank_oracle(K7, u)


def test_trace_ideal_rows_are_cosets(triple, K7):
    ideal = trace_ideal(triple)
    sizes = sorted(set(ideal.rows.array.sum(axis=1).tolist()))
    assert sizes == [6, 10, 22]
    assert ideal.rows.rows == 660 // 6 + 660 // 10 + 660 // 22


def test_direct_product_criterion(triple, K7):
    # the 3-Sylow of Gamma is the direct product of the inertia
    # 3-Sylows, so no divisor level may show 3-torsion; and since
    # w = 2 every torsion exponent must be a power of two
    for u in triple.modulus.divisors():
        _, z = trace_ideal_quotient(ray_class_group(K7, u))
        assert z % 3
        while z % 2 == 0:
            z //= 2
        assert z == 1


def test_decomposition_matches_class_number():
    K = make_field(5)
    n = _modulus(K, [(3, 0, 1), (7, 0, 1)])
    G = ray_class_group(K, n)
    assert K.h == 2
    quot, _ = trace_ideal_quotient(G)
    gq = gal_h_quotient(G, n)
    assert sorted(quot.invariant_factors) == \
        sorted(gq.invariant_factors * K.h)


# -- the parity theorem over H ------------------------------------------------

def test_gal_torsion_triple_is_z2(triple):
    assert gal_h_quotient_torsion(triple, triple.modulus) == AbGroup((2,))


def test_gal_torsion_even_level_trivial(triple, K7):
    n = _modulus(K7, [(7, None, 1), (11, 0, 1)])
    assert gal_h_quotient_torsion(triple, n) == AbGroup(())


def test_gal_torsion_single_prime_trivial(triple, K7):
    n = _modulus(K7, [(11, 0, 1)])
    assert gal_h_quotient_torsion(triple, n) == AbGroup(())


def test_gal_torsion_sixth_roots():
    K = make_field(3)
    n = _modulus(K, [(7, 0, 1), (13, 0, 1), (19, 0, 1)])
    G = ray_class_group(K, n)
    assert gal_h_quotient_torsion(G, n) == AbGroup((6,))


def test_gal_torsion_rejects_bad_coprimality():
    K = make_field(23)
    n = _modulus(K, [(2, 0, 1)])
    G = ray_class_group(K, n)
    with pytest.raises(NotCoprimeToW):
        gal_h_quotient_torsion(G, n)


# -- the integer layout against the Fraction reference ------------------------

def _num_den(x):
    return x.num.tolist(), x.den


@pytest.mark.parametrize("d, qs", _TRANSFORM_LEVELS)
def test_ring_matches_fraction_reference(request, d, qs):
    """On every level whose transform the suite builds: alpha for every
    pair of divisors u | n2 of m, its transfer to m (which must be
    alpha(u, m)), and the trace-ideal rows of every divisor, against
    the Fraction group ring the integer layout replaced."""
    P = _transform_level(request, d, qs)
    m = P.modulus
    G = P.ray(m)
    for n2 in P.levels:
        H = P.ray(n2)
        up = G.transition(n2)
        for u in n2.divisors():
            new, old = alpha(u, n2, H), ref.alpha(u, n2, H)
            assert _num_den(new) == ref.to_num_den(old)
            lifted = transfer(new, up)
            assert _num_den(lifted) == ref.to_num_den(ref.transfer(old, up))
            assert lifted == alpha(u, m, G)
        subs = [H.inertia(p).elements for p, _ in n2.primes]
        rows = trace_ideal(H).rows
        assert rows.array.dtype == np.int64
        # the same rows in the same order, which cokernel's unit
        # pre-reduction depends on
        assert rows.entries == ref.coset_rows(H.group, subs)
