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

import pytest

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
    assert x.augmentation() == 1


def test_trace_augmentation_counts():
    G = AbGroup((4,))
    x = trace(G.elements(), G)
    assert x.augmentation() == 4
    assert all(c == 1 for _, c in x.coeffs)


def test_subgroup_trace_idempotent_up_to_order():
    G = AbGroup((2, 4))
    H = Subgroup.generated(G, [(1, 2)])
    s = trace(H)
    assert s * s == s.scale(H.order)


def test_ring_is_commutative_and_distributive():
    G = AbGroup((6,))
    a = GroupRingElt.make(G, {(1,): Fraction(2), (3,): Fraction(-1, 2)})
    b = GroupRingElt.make(G, {(2,): Fraction(1), (5,): Fraction(3)})
    c = GroupRingElt.one(G) - b
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a) == GroupRingElt.zero(G)


def test_translate_and_rows():
    G = AbGroup((3,))
    x = GroupRingElt.make(G, {(0,): 1, (1,): 2})
    y = x.translate((1,))
    assert y.to_row() == [0, 1, 2]
    assert x.integer_row() == [1, 2, 0]
    half = x.scale(Fraction(1, 2))
    assert half.denominator() == 2
    with pytest.raises(Exception):
        half.integer_row()


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
    assert star == trace(Subgroup.whole(G.group)).scale(Fraction(1, 5))


def test_p_star_ramified_in_triple(triple, K7):
    p7 = _prime(K7, 7)
    star = p_star(triple, p7)
    T = triple.inertia(p7)
    assert len(star.coeffs) == 6
    assert all(c == Fraction(1, 6) for _, c in star.coeffs)
    assert star.augmentation() == 1
    # the trace absorbs any inertia translation of the Frobenius lift
    assert star * trace(T) == star.scale(T.order)


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
    assert alpha(n, triple.modulus, triple).augmentation() == 0


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
    sizes = sorted({sum(r) for r in ideal.rows})
    assert sizes == [6, 10, 22]
    assert len(ideal.rows) == 660 // 6 + 660 // 10 + 660 // 22


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
