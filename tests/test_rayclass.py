"""Ray class groups: orders, Artin maps, transitions, inertia, frames.

Orders are cross-checked against h * phi(n) / #image(mu), which the
constructor also enforces internally; the tests below recompute that
value from scratch so a silent change in either factor is caught.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import numpy_linalg as nl
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import class_stack as cs
import ordist.rayclass as rc
import tuple_presentation as tp
from ordist.quadfield import Modulus, OIdeal, make_field
from ordist.rayclass import (
    FrameUnavailable,
    NotCoprime,
    NotDivisor,
    PrimeNotInModulus,
    Subgroup,
    galois_over_h,
    ray_class_group,
)
from ordist.zlinalg import OrdistError, cokernel


def _modulus(K, spec):
    """spec: list of (rational prime, index or None, exponent)."""
    parts = []
    for p, idx, e in spec:
        _, ids = K.splitting_type(p)
        parts.append((ids[idx or 0], e))
    return Modulus(K, tuple(parts))


def _greedy(sub):
    """Greedy generators of a subgroup, by the tuple reference."""
    amb = sub.ambient
    return tp.greedy_generators(sub.elements, amb.add, amb.zero(),
                                sub.order)


def _structure(sub):
    """The structure of a subgroup, by the tuple reference."""
    amb = sub.ambient
    return tp.ab_discover(sub.order, amb.add, _greedy(sub), amb.zero())[0]


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


# -- orders and structure -----------------------------------------------------

def test_trivial_modulus_trivial_class_group(K7):
    G = ray_class_group(K7, Modulus.one(K7))
    assert G.group.order == 1


def test_trivial_modulus_matches_class_group():
    for d in (23, 15, 5):
        K = make_field(d)
        G = ray_class_group(K, Modulus.one(K))
        assert G.group.order == K.h
        assert G.group.invariant_factors == K.class_group.invariant_factors


def test_single_split_prime_order_five(K7):
    G = ray_class_group(K7, _modulus(K7, [(11, 0, 1)]))
    assert G.group.invariant_factors == (5,)


def test_single_prime_orders(K7):
    assert ray_class_group(K7, _modulus(K7, [(7, None, 1)])).group.order == 3
    assert ray_class_group(K7, _modulus(K7, [(23, 0, 1)])).group.order == 11


def test_triple_order_and_structure(triple):
    assert triple.group.order == 660
    assert triple.group.invariant_factors == (2, 330)


def test_pair_order(K7):
    G = ray_class_group(K7, _modulus(K7, [(7, None, 1), (11, 0, 1)]))
    assert G.group.invariant_factors == (30,)


def test_order_formula_every_divisor(triple, K7):
    for u in triple.modulus.divisors():
        G = ray_class_group(K7, u)
        mu = len(set(G.mu_images))
        assert G.group.order == K7.h * u.phi() // mu


def test_sixth_roots_kill_small_level():
    K = make_field(3)
    G = ray_class_group(K, _modulus(K, [(7, 0, 1)]))
    # (O/p7)^x has order 6 and equals the image of the sixth roots
    assert G.group.order == 1
    G2 = ray_class_group(K, _modulus(K, [(7, 0, 1), (13, 0, 1)]))
    assert G2.group.order == 12


def test_nontrivial_class_group_orders():
    K = make_field(23)
    G = ray_class_group(K, _modulus(K, [(13, 0, 1)]))
    assert G.group.order == 3 * 12 // 2
    K2 = make_field(5)
    G2 = ray_class_group(K2, _modulus(K2, [(3, 0, 1)]))
    assert G2.group.order == 2 * 2 // 2


# -- the Artin map ------------------------------------------------------------

def test_artin_rejects_noncoprime(triple, K7):
    with pytest.raises(NotCoprime):
        triple.artin(_prime(K7, 7))


def test_artin_multiplicative(triple, K7):
    g = triple.group
    a = _prime(K7, 2, 0)
    b = _prime(K7, 29, 0)
    ab = a.multiply(b)
    assert triple.artin(ab) == g.add(triple.artin(a), triple.artin(b))
    aa = a.multiply(a)
    assert triple.artin(aa) == g.scale(triple.artin(a), 2)


def test_artin_multiplicative_with_class_group():
    K = make_field(23)
    G = ray_class_group(K, _modulus(K, [(13, 0, 1)]))
    g = G.group
    a = _prime(K, 2, 0)
    b = _prime(K, 3, 0)
    assert G.artin(a.multiply(b)) == g.add(G.artin(a), G.artin(b))
    assert G.artin(a.multiply(a)) == g.scale(G.artin(a), 2)


# Cl = Z/2 x Z/8 on three class primes: kernel rows of the class stack
# survive their reduction mod the class orders, unlike over a cyclic Cl
def _level161(K):
    return _modulus(K, [(5, None, 1), (11, None, 1)])


@pytest.fixture(scope="module")
def K161():
    return make_field(161)


def test_noncyclic_class_group_level(K161):
    assert K161.class_group.invariant_factors == (2, 8)
    G = ray_class_group(K161, _level161(K161))
    assert len(G.class_primes) == 3
    assert G.group.invariant_factors == (2, 160)
    assert G.group.order == 320


def _class_fields():
    """The fields of squarefree d < 300 with h > 1."""
    fields = []
    for d in range(1, 300):
        if all(d % (q * q) for q in range(2, 18)):
            K = make_field(d)
            if K.h > 1:
                fields.append(K)
    return fields


def _small_primes(K, bound):
    """The prime ideals of norm at most bound, split or ramified."""
    return [P for q in range(2, bound + 1) if rc._is_prime(q)
            for P in K.splitting_type(q)[1] if P.norm() == q]


def _two_moduli(K):
    """The prime over the least split or ramified odd prime, and its
    product with the prime over the next one."""
    P, Q = [ids[0] for q in range(3, 200) if rc._is_prime(q)
            for kind, ids in [K.splitting_type(q)] if kind != "inert"][:2]
    return Modulus(K, ((P, 1),)), Modulus(K, ((P, 1), (Q, 1)))


def test_class_kernel_rows_span_the_kernel(K161):
    # the rows of the greedy pick are nonnegative and triangular, each
    # row's classes sum to 0, and Z^s modulo the rows has order h: they
    # span the whole kernel of Z^s -> Cl
    levels = [(K161, _level161(K161))] + \
        [(K, Modulus.one(K)) for K in _class_fields()]
    assert len(levels) > 100
    for K, n in levels:
        cl = K.class_group
        primes, words, kernel = ray_class_group(K, n)._pick_class_primes()
        s = len(primes)
        classes = [K.ideal_class(q) for q in primes]
        assert len(kernel) == s and len(words) == K.h, K
        for j, row in enumerate(kernel):
            assert min(row) >= 0 and row[j] > 0 and not any(row[j + 1:])
            total = cl.zero()
            for q, e in zip(classes, row):
                total = cl.add(total, cl.scale(q, e))
            assert total == cl.zero(), (K, row)
        assert cokernel(kernel, s).order == K.h, K
        for c, x in words.items():
            total = cl.zero()
            for j, (q, e) in enumerate(zip(classes, x)):
                assert 0 <= e < kernel[j][j]
                total = cl.add(total, cl.scale(q, e))
            assert total == c, (K, x)


def test_class_part_matches_class_stack_route(K161):
    # the greedy pick against the class-stack route it replaced: the
    # same class primes, invariant factors and Artin element orders
    levels = [(K161, _level161(K161))] + \
        [(K, n) for K in _class_fields() for n in _two_moduli(K)]
    for K, n in levels:
        G, ref = rc.RayClassGroup(K, n), cs.StackRayClassGroup(K, n)
        assert G.class_primes == ref.class_primes, (K, n.label())
        assert G.group == ref.group, (K, n.label())
        for P in _small_primes(K, 40) + list(G.class_primes):
            if P.is_coprime(n.ideal):
                assert G.group.element_order(G.artin(P)) == \
                    ref.group.element_order(ref.artin(P)), (K, n.label(), P)


def test_artin_multiplicative_on_noncyclic_class_group(K161):
    G = ray_class_group(K161, _level161(K161))
    g = G.group
    # split primes of classes (1, 5), (0, 7), (0, 6) and (1, 0)
    a, b, c, e = (_prime(K161, q) for q in (3, 17, 29, 43))
    for x, y in ((a, b), (b, c), (a, e), (c, e)):
        assert G.artin(x.multiply(y)) == g.add(G.artin(x), G.artin(y))
    assert G.artin(a.multiply(a)) == g.scale(G.artin(a), 2)
    assert len({G.artin(x) for x in (a, b, c, e)}) == 4


def test_artin_of_principal_prime_reads_residue(triple, K7):
    # omega = (1 + sqrt(-7))/2 has norm 2 and generates a prime over 2
    w_ideal = K7.principal_ideal((0, 1))
    assert w_ideal.norm() == 2
    coords = triple.artin(w_ideal)
    word = list(triple._unit_dlog_of((0, 1))) + [0] * triple._s
    assert coords == triple.word_to_coords(word)


def test_words_and_coordinates_round_trip(triple):
    # every relation word is 0, and the back map of the Smith
    # coordinates lifts each class to a word with those coordinates, on
    # the headline group and on one with a class prime
    K = make_field(23)
    for G in (triple, ray_class_group(K, _modulus(K, [(13, 0, 1)]))):
        zero = G.group.zero()
        kernel = G._pick_class_primes()[2]
        assert all(G.word_to_coords(r) == zero
                   for r in G._relation_rows(kernel))
        for c in G.group.elements():
            word = (np.array(c, dtype=object)
                    @ nl.dense(G._back, G._t + G._s)).tolist()
            assert G.word_to_coords(word) == c


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_artin_principal_matches_residue(xy):
    K = make_field(7)
    u = xy
    n = K.elt_norm(u)
    G = ray_class_group(K, _modulus(K, [(11, 0, 1)]))
    if n == 0 or n % 11 == 0:
        return
    coords = G.artin(K.principal_ideal(u))
    # (u) forgets the unit; the roots-of-unity relation makes the
    # residue word of either sign land on the same coordinates
    word = list(G._unit_dlog_of(u))
    assert coords == G.word_to_coords(word)


# -- transitions --------------------------------------------------------------

def test_transition_requires_divisor(K7):
    G7 = ray_class_group(K7, _modulus(K7, [(7, None, 1)]))
    with pytest.raises(NotDivisor):
        G7.transition(_modulus(K7, [(11, 0, 1)]))


def test_transition_kernel_size(K7):
    G = ray_class_group(K7, _modulus(K7, [(7, None, 1), (11, 0, 1)]))
    n2 = _modulus(K7, [(11, 0, 1)])
    hom = G.transition(n2)
    assert G.group.order == 30 and hom.codomain.order == 5
    ker = G.level_kernel(n2)
    assert ker.order == 6


def test_transition_commutes_with_artin(triple, K7):
    n2 = _modulus(K7, [(11, 0, 1), (23, 0, 1)])
    hom = triple.transition(n2)
    target = ray_class_group(K7, n2)
    for p, idx in ((2, 0), (2, 1), (29, 0), (37, 0), (53, 1)):
        a = _prime(K7, p, idx)
        assert hom.apply(triple.artin(a)) == target.artin(a)


def test_transition_functorial(triple, K7):
    mid = _modulus(K7, [(7, None, 1), (11, 0, 1)])
    small = _modulus(K7, [(11, 0, 1)])
    t1 = triple.transition(mid)
    t2 = ray_class_group(K7, mid).transition(small)
    direct = triple.transition(small)
    # t2 after t1, on indices
    assert tuple(t2.index_image[g] for g in t1.index_image) == \
        direct.index_image


# -- inertia ------------------------------------------------------------------

def test_inertia_requires_modulus_prime(triple, K7):
    with pytest.raises(PrimeNotInModulus):
        triple.inertia(_prime(K7, 2, 0))


def test_inertia_orders_in_triple(triple, K7):
    t7 = triple.inertia(_prime(K7, 7))
    assert t7.order == 6
    assert _structure(t7).invariant_factors == (6,)
    assert triple.inertia(_prime(K7, 11, 0)).order == 10
    assert triple.inertia(_prime(K7, 23, 0)).order == 22


def test_inertia_fills_single_prime_group(K7):
    G = ray_class_group(K7, _modulus(K7, [(11, 0, 1)]))
    t = G.inertia(_prime(K7, 11, 0))
    assert t.order == 5 == G.group.order


def test_inertia_generates_gamma(triple, K7):
    prod = triple.inertia(_prime(K7, 7))
    prod = prod.product(triple.inertia(_prime(K7, 11, 0)))
    prod = prod.product(triple.inertia(_prime(K7, 23, 0)))
    gamma = triple.gamma()
    assert set(prod.elements) == set(gamma.elements)
    assert gamma.order == 660


def test_inertia_generates_gamma_with_class_group():
    K = make_field(15)
    G = ray_class_group(K, _modulus(K, [(17, 0, 1), (19, 0, 1)]))
    assert G.group.order == 2 * 16 * 18 // 2
    gamma = G.gamma()
    assert gamma.order == G.group.order // 2
    prod = G.inertia(_prime(K, 17, 0)).product(G.inertia(_prime(K, 19, 0)))
    assert set(prod.elements) == set(gamma.elements)


def test_inertia_matches_local_units():
    # away from w_K and with at least two primes, inertia at p is the
    # full local unit group (O/p^e)^x
    K = make_field(15)
    G = ray_class_group(K, _modulus(K, [(17, 0, 2), (19, 0, 1)]))
    t = G.inertia(_prime(K, 17, 0))
    assert _structure(t).invariant_factors == (16 * 17,)
    t19 = G.inertia(_prime(K, 19, 0))
    assert _structure(t19).invariant_factors == (18,)


# -- the shared closure -------------------------------------------------------

def _old_bfs(mul, identity, gens):
    """The breadth-first closure that the subgroup code repeated before
    it moved onto zlinalg._closure."""
    closure = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = mul(e, g)
                if f not in closure:
                    closure.add(f)
                    nxt.append(f)
        frontier = nxt
    return closure


def _old_harvest(elements, mul, identity, order):
    """Copy of the greedy harvest loop of rayclass._subgroup_structure
    and rayclass.residue_units before it moved onto index
    permutations (zlinalg._harvest): the closure is rebuilt from the
    identity after each new generator."""
    gens = []
    closure = {identity}
    for x in elements:
        if x in closure:
            continue
        gens.append(x)
        closure = _old_bfs(mul, identity, gens)
        if len(closure) == order:
            break
    return gens


def test_generator_harvests_match_old_loop(triple, monkeypatch):
    # the harvested lists fix every dlog, so they must not move
    import ordist.zlinalg as zl

    calls = []

    def recording(order, perm_of, identity):
        perms = zl._harvest(order, perm_of, identity)
        # a generator's label is its permutation at the identity
        calls.append([perm[identity] for perm in perms])
        return perms

    monkeypatch.setattr(rc, "_harvest", recording)
    rc.residue_units(triple.field, triple.modulus)
    assert len(calls) == 1
    # labels are positions among the units in the old enumeration order
    units, mul, ident, order, _ = tp.residue_gens(triple.field,
                                                  triple.modulus)
    assert calls[0] and [units[g] for g in calls[0]] == \
        _old_harvest(units, mul, ident, order)
    amb = triple.group
    whole = _old_harvest(amb.elements(), amb.add, amb.zero(), amb.order)
    for gens in ([], [(1,) * len(amb.invariant_factors)], whole,
                 [amb.neg(g) for g in whole[1:]]):
        want = _old_bfs(amb.add, amb.zero(), gens)
        assert Subgroup.generated(amb, gens).elements == tuple(sorted(want))


@pytest.fixture(scope="module")
def d15_level():
    K = make_field(15)
    return ray_class_group(K, _modulus(K, [(17, 0, 1), (19, 0, 1)]))


@pytest.mark.parametrize("level", ["triple", "d15_level"])
def test_subgroup_masks_match_tuple_sets(request, level):
    # every mask operation against the element-tuple sets it replaced
    G = request.getfixturevalue(level)
    amb = G.group
    zero = amb.zero()
    every = amb.elements()
    divisors = G.modulus.divisors()
    kernels = {}
    for u in divisors:
        hom = G.transition(u)
        want = {x for x in every if hom.apply(x) == hom.codomain.zero()}
        kernels[u] = G.level_kernel(u)
        assert kernels[u].elements == tuple(sorted(want)), u.label()
    subs = [Subgroup.whole(amb)] + list(kernels.values())
    for sub in subs:
        els = set(sub.elements)
        assert sub.order == len(els)
        for x in every:
            assert bool(sub.mask[amb.index_of(x)]) == (x in els)
            # an unreduced representative of the same element
            assert bool(sub.mask[amb.index_of(tuple(
                c + d for c, d in zip(x, amb.invariant_factors)))]) \
                == (x in els)
        for k in (0, 1, 2, 3, 5, 6, 11, sub.order):
            want = {amb.scale(x, k) for x in els}
            assert set(sub.scaled(k).elements) == want
        for ell in (2, 3, 5, 11):
            n, la = sub.order, 1
            while n % ell == 0:
                n //= ell
                la *= ell
            assert set(sub.sylow(ell).elements) == \
                {amb.scale(x, n) for x in els}
            assert set(sub.prime_to(ell).elements) == \
                {amb.scale(x, la) for x in els}
        gens = _greedy(sub)
        assert Subgroup.generated(amb, gens) == sub
        assert set(sub.elements) == _old_bfs(amb.add, zero, gens)
    small = [s for s in subs if s.order <= 40] + \
        [s.sylow(2) for s in subs] + [s.sylow(3) for s in subs]
    for a in small:
        for b in small:
            sa, sb = set(a.elements), set(b.elements)
            assert set(a.product(b).elements) == \
                {amb.add(x, y) for x in sa for y in sb}
            assert set(a.intersection(b).elements) == sa & sb


def test_subgroup_rejects_bad_masks(triple):
    amb = triple.group
    with pytest.raises(OrdistError, match="mask"):
        Subgroup(amb, np.ones(amb.order - 1, dtype=bool))
    with pytest.raises(OrdistError, match="mask"):
        Subgroup(amb, np.zeros(amb.order, dtype=bool))
    mask = np.ones(amb.order, dtype=bool)
    mask[0] = False
    with pytest.raises(OrdistError, match="mask"):
        Subgroup(amb, mask)
    # the mask is the subgroup's own, read-only copy
    mask[0] = True
    sub = Subgroup(amb, mask)
    mask[1] = False
    assert sub.mask == b"\x01" * amb.order and isinstance(sub.mask, bytes)


def test_modulus_ideal_is_built_once_per_group(K7, monkeypatch):
    # residue_units and RayClassGroup share one product of prime powers
    calls = []
    multiply = OIdeal.multiply

    def counting(self, other):
        calls.append(1)
        return multiply(self, other)

    spec = [(7, None, 1), (11, 0, 2)]
    n1, n2 = _modulus(K7, spec), _modulus(K7, spec)
    monkeypatch.setattr(OIdeal, "multiply", counting)
    n1.ideal
    once = len(calls)
    calls.clear()
    rc.RayClassGroup(K7, n2)
    assert once and len(calls) == once


def test_lifted_unit_generators_are_checked(K7, monkeypatch):
    # each local generator lifts through its CRT idempotent to a residue
    # mod n that logs to its unit vector; without the idempotents the
    # lift of a generator mod p7 is not 1 mod p11, and the check raises
    n = _modulus(K7, [(7, None, 1), (11, 0, 1)])
    G = rc.RayClassGroup(K7, n)
    t = G._t
    assert [G._unit_dlog_of(r) for r in G._unit_reps] == \
        [tuple(int(i == j) for j in range(t)) for i in range(t)]
    monkeypatch.setattr(rc, "_crt_idempotents",
                        lambda n, powers: [(1, 0)] * len(powers))
    with pytest.raises(OrdistError, match="does not log to its unit vector"):
        rc.RayClassGroup(K7, n)


def test_unit_part_takes_residue_units_of_prime_powers_only(K7,
                                                            monkeypatch):
    # (O/n)^x of a composite n is never enumerated: residue_units runs
    # once per prime power, for the whole process
    rc._prime_power_units.cache_clear()
    seen = []
    orig = rc.residue_units

    def recording(K, n):
        seen.append(n)
        return orig(K, n)

    monkeypatch.setattr(rc, "residue_units", recording)
    m = _modulus(K7, [(7, None, 1), (11, 0, 2), (23, 0, 1)])
    for u in m.divisors():
        rc.RayClassGroup(K7, u)
    assert all(n.n_primes == 1 for n in seen)
    assert sorted(n.label() for n in seen) == \
        ["p:11:0", "p:11:0^2", "p:23:0", "q:7"]


# -- Frobenius ----------------------------------------------------------------

def test_frobenius_exact_when_coprime(K7):
    G = ray_class_group(K7, Modulus.one(K7))
    rep, exact = G.frobenius(_prime(K7, 11, 0))
    assert exact and rep == G.group.zero()


def test_frobenius_order_three(K7):
    G = ray_class_group(K7, _modulus(K7, [(7, None, 1)]))
    rep, exact = G.frobenius(_prime(K7, 11, 0))
    assert exact
    assert G.group.element_order(rep) == 3


def test_frobenius_lift_when_ramified(K7):
    G = ray_class_group(K7, _modulus(K7, [(11, 0, 1)]))
    rep, exact = G.frobenius(_prime(K7, 11, 0))
    assert not exact
    assert rep == G.group.zero()


def test_frobenius_lift_consistent(triple, K7):
    p7 = _prime(K7, 7)
    rep, exact = triple.frobenius(p7)
    assert not exact
    n2 = triple.modulus.without(p7)
    hom = triple.transition(n2)
    assert hom.apply(rep) == ray_class_group(K7, n2).artin(p7)


def test_section_and_frobenius_take_the_first_preimage(triple, K7):
    # entry sigma of a section is the least index over sigma, and the
    # Frobenius lift is the element at that index
    for u in triple.modulus.divisors():
        image = triple.transition(u).index_image
        order = ray_class_group(K7, u).group.order
        assert triple.section(u) == \
            tuple(image.index(s) for s in range(order))
    for p, _ in triple.modulus.primes:
        n2 = triple.modulus.without(p)
        G2 = ray_class_group(K7, n2)
        over = G2.group.index_of(G2.artin(p))
        first = triple.transition(n2).index_image.index(over)
        assert triple.frobenius(p) == (triple.group.coordinates[first], False)


# -- the tau-frame ------------------------------------------------------------

def test_frame_ell_two(triple):
    fr = galois_over_h(triple, 2)
    assert fr.g == (2, 2, 2)
    assert fr.g_ell.order == 4
    amb = triple.group
    t1, t2, t3 = fr.taus
    assert amb.element_order(t1) == 2 and amb.element_order(t2) == 2
    assert t3 == amb.zero()
    assert fr.j == amb.add(t1, t2)
    assert amb.element_order(fr.j) == 2
    assert fr.gamma.order == 660
    assert fr.g_prime.order == 165
    assert fr.g_prime.product(fr.g_ell).order == 660
    # j spans the inertia 2-part at the last prime
    last = fr.inertia_ell[-1]
    assert set(Subgroup.generated(amb, [fr.j]).elements) == \
        set(last.elements)


def test_frame_ell_two_sylow_is_klein(triple):
    fr = galois_over_h(triple, 2)
    assert _structure(fr.g_ell).invariant_factors == (2, 2)


def test_frame_ell_three(triple):
    fr = galois_over_h(triple, 3)
    assert fr.g_ell.order == 3
    assert sorted(fr.g, reverse=True) == [3, 1, 1]
    assert fr.g[-1] == 1
    amb = triple.group
    assert amb.element_order(fr.j) == 1


def test_frame_large_ell_trivial(triple):
    fr = galois_over_h(triple, 13)
    assert fr.g_ell.order == 1
    assert all(t == triple.group.zero() for t in fr.taus)
    assert fr.gamma.order == 660 and fr.g_prime.order == 660


def test_frame_every_ell_consistent(triple):
    amb = triple.group
    for ell in (2, 3, 5, 11):
        fr = galois_over_h(triple, ell)
        span = Subgroup.generated(amb, [])
        for tau in fr.taus:
            span = span.product(Subgroup.generated(amb, [tau]))
        assert span.order == fr.g_ell.order
        assert fr.g_prime.product(fr.g_ell).order == fr.gamma.order


def test_frame_unavailable_single_prime(K7):
    G = ray_class_group(K7, _modulus(K7, [(11, 0, 1)]))
    with pytest.raises(FrameUnavailable):
        galois_over_h(G, 2)


def test_frame_takes_a_complement_whose_j_generates_the_last_inertia():
    # the inertia 3-orders are (9, 3) and #G_3 = 27 on both levels; at
    # d = 31 the first complement in index order gives a j outside the
    # last inertia 3-Sylow, a later one gives a j that generates it (at
    # d = 19 the first did so in the coordinates of G_n before its unit
    # part was assembled from prime powers)
    for d, q in ((19, 19), (31, 19)):
        K = make_field(d)
        G = ray_class_group(K, _modulus(K, [(7, None, 1), (q, None, 1)]))
        fr = galois_over_h(G, 3)
        assert fr.g == (9, 3) and fr.g_ell.order == 27
        assert Subgroup.generated(G.group, [fr.j]) == fr.inertia_ell[-1]


def test_frame_unavailable_when_no_complement_gives_j():
    K = make_field(1)
    G = ray_class_group(K, _modulus(K, [(5, None, 1), (13, None, 1),
                                       (17, None, 1)]))
    with pytest.raises(FrameUnavailable):
        galois_over_h(G, 2)


def test_frobenius_check_survives_optimize():
    # a Frobenius with no preimage must raise even when python -O strips
    # assert statements
    code = textwrap.dedent("""
        import ordist.rayclass as rc
        from ordist.quadfield import Modulus, make_field
        from ordist.zlinalg import OrdistError
        K = make_field(7)
        p = K.splitting_type(11)[1][0]
        G = rc.ray_class_group(K, Modulus(K, ((p, 1),)))
        # every element maps outside G_(1), which has one element: the
        # transition is still onto, and the section finds no preimage
        rc.AbHom.index_image = property(lambda hom: (-1,) * hom.domain.order)
        try:
            G.frobenius(p)
        except OrdistError as exc:
            print("raised:", exc)
        """)
    src = os.path.dirname(os.path.dirname(rc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("raised: the Frobenius has no preimage")
