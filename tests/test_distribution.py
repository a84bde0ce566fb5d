import functools
import itertools
import json
import math
import os
import random
import runpy
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordist.distribution as dist
import ordist.zlinalg as zlinalg
import dense_transform as dt
import numpy_linalg as nl
import character_mod_p as ref_chars
import fraction_groupring as ref
import index_groupring as ig
import tuple_presentation as tp
from dense_transform import modular_rank
from ordist.groupring import GroupRingElt, NotCoprimeToW, alpha
from ordist.quadfield import Modulus, ModulusTooLarge, make_field, \
    search_torsex
from ordist.rayclass import RayClassGroup, Subgroup
from ordist.zlinalg import AbGroup, AbHom, CSRMatrix, IntMatrix
from ordist.distribution import (
    HypothesisFailed,
    OracleMismatch,
    WrongShape,
    build_presentation,
    level_torsion,
    nu,
    torsex_certificate,
    torsion_bound,
)
from conftest import prime_above


def modulus_of(K, *qs):
    return Modulus(K, tuple((prime_above(K, q), 1) for q in qs))


# presentation shape


def test_trivial_modulus_is_class_group_copy(field7):
    P = build_presentation(field7, Modulus(field7, ()))
    assert P.n_gens == field7.h == 1
    assert P.relations.rows == 0
    F, scale = dt.iwasawa_matrix(P)
    assert F.entries == P.heads.entries == ((1,),)
    assert scale == 1
    assert level_torsion(P).is_trivial
    assert torsion_bound(P) == (1, 1)


def test_trivial_modulus_class_number_three():
    K = make_field(23)
    P = build_presentation(K, Modulus(K, ()))
    assert P.n_gens == K.h == 3
    assert P.relations.rows == 0
    # the transform is a permutation of the class group, identity block
    F, _ = dt.iwasawa_matrix(P)
    assert sorted(F.entries) == sorted(tuple(int(i == j) for j in range(3))
                                       for i in range(3))
    assert P.heads.entries == ((1, 0, 0),)
    assert level_torsion(P).is_trivial


def test_presentation_checks_the_norm_before_the_divisor_walk(
        field7, monkeypatch):
    # p2^(10^6) has 10^6 + 1 divisors
    two = field7.splitting_type(2)[1][0]
    m = Modulus(field7, ((two, 10 ** 6),))

    def walk(self):
        raise AssertionError("divisors walked before the norm check")

    monkeypatch.setattr(Modulus, "divisors", walk)
    with pytest.raises(ModulusTooLarge, match="^norm exceeds 1000000$"):
        build_presentation(field7, m)


def test_pair_levels_are_torsion_free(field7):
    for qs in ((7, 11), (7, 23), (11, 23)):
        P = build_presentation(field7, modulus_of(field7, *qs))
        assert level_torsion(P).is_trivial
        product, borne = torsion_bound(P)
        assert borne == 1  # a = 2^(2-1) - 2 = 0


def test_exponent_levels_run_both_oracles(field7):
    p11 = prime_above(field7, 11)
    P = build_presentation(field7, Modulus(field7, ((p11, 2),)))
    # blocks: trivial level, p11, p11^2 of orders 1, 5, 55
    assert P.n_gens == 61
    # one row per sigma per divisor step: (1)->p11, (1)->p11^2, p11->p11^2
    assert P.relations.rows == 1 + 1 + 5
    assert level_torsion(P).is_trivial
    assert torsion_bound(P) == (1, 1)


def test_triple_reproduces_published_numbers(triple7):
    P = triple7
    assert P.n_gens == 886
    assert P.relations.rows == 247
    assert isinstance(P.relations, CSRMatrix)
    assert P.relations.cols == 886
    # one head per divisor, over G_m: the transform itself is not built
    assert (P.heads.rows, P.heads.cols) == (8, 660)
    assert level_torsion(P).invariant_factors == (2,)
    assert torsion_bound(P) == (2, 2)


def test_block_layout_matches_gen_index(triple7):
    P = triple7
    gens = tp.gen_index(P)
    assert len(gens) == P.n_gens
    for u, sigma in random.Random(7).sample(gens, 40):
        idx = P.offset(u) + P.ray(u).group.index_of(sigma)
        assert gens[idx] == (u, sigma)


# transform properties


def test_transform_annihilates_relations(field7):
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    F, _ = dt.iwasawa_matrix(P)
    for row in P.relations.entries:
        for frow in F.entries:
            assert sum(a * b for a, b in zip(frow, row)) == 0


def test_transform_columns_independent_of_lift(field7):
    # rebuild one block with randomized section and compare
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    F, scale = dt.iwasawa_matrix(P)
    G = P.ray(P.modulus)
    amb = G.group
    rng = random.Random(11)
    for u in P.levels:
        au = ref.alpha(u, P.modulus, G)
        down = G.transition(u)
        fibers = {}
        for g in amb.elements():
            fibers.setdefault(down.apply(g), []).append(g)
        for sigma in P.ray(u).group.elements():
            s = rng.choice(fibers[sigma])
            col = [0] * amb.order
            for el, cf in au.coeffs:
                col[amb.index_of(amb.add(el, s))] = cf * scale
            j = P.offset(u) + P.ray(u).group.index_of(sigma)
            assert [F.entries[i][j] for i in range(F.rows)] == col


def _fraction_transform(P):
    """Reference transform: the per-cell Fraction builder that the
    index gather replaced, one AbGroup.add and index_of per entry, on
    the reference alpha of fraction_groupring.  Returns the matrix and
    its least common denominator."""
    G = P.ray(P.modulus)
    amb = G.group
    cols = []
    for u in P.levels:
        au = ref.alpha(u, P.modulus, G)
        down = G.transition(u)
        lift = {}
        for g in amb.elements():
            lift.setdefault(down.apply(g), g)
        for sigma in P.ray(u).group.elements():
            s = lift[sigma]
            col = [Fraction(0)] * amb.order
            for el, cf in au.coeffs:
                col[amb.index_of(amb.add(el, s))] = cf
            cols.append(col)
    scale = 1
    for col in cols:
        for x in col:
            scale = math.lcm(scale, x.denominator)
    rows = [[int(cols[j][i] * scale) for j in range(P.n_gens)]
            for i in range(amb.order)]
    return IntMatrix(rows, P.n_gens), scale


# every level whose transform the suite builds; a prime is q or (q, e)
_TRANSFORM_LEVELS = [
    (7, (7, 11, 23)),                   # the headline triple
    (1, (5, 13, 17)), (3, (7, 13, 19)),  # w = 4 and w = 6 triples
    (19, (5, 7, 11)),
    (7, ()), (7, (7,)), (7, (11,)), (7, (23,)), (7, ((11, 2),)),
    (7, (7, 11)), (7, (7, 23)), (7, (11, 23)),
    (15, (19,)), (15, (19, 31)), (23, (3,)), (23, (3, 13)),  # h > 1
    (1, (5,)), (3, (7,)), (11, (3,)),   # trivial G_m
]


def _transform_level(request, d, qs):
    if (d, qs) == (7, (7, 11, 23)):
        return request.getfixturevalue("triple7")
    K = make_field(d)
    return build_presentation(K, Modulus(K, tuple(
        (prime_above(K, q), 1) if isinstance(q, int)
        else (prime_above(K, q[0]), q[1]) for q in qs)))


def _template_verdict(P, heads, rel):
    """True when the transform-free annihilation check passes."""
    try:
        dist._check_annihilation(P, heads, rel)
    except OracleMismatch:
        return False
    return True


def _perturbed(rel, F, rng):
    """Copies of rel with one row changed in a way F can see: one entry
    raised by 1 in a column where F is nonzero, and, in a row holding
    two different values in two different columns of F, those two
    swapped.  (Where F has a zero column, only the template check sees
    a change of the relations.)"""
    A, F = nl.dense(rel), nl.dense(F)
    seen = F.any(axis=0)
    out = []
    entries = [(i, j) for i, j in np.argwhere(A != 0).tolist() if seen[j]]
    if entries:
        i, j = rng.choice(entries)
        bumped = A.copy()
        bumped[i, j] += 1
        out.append(CSRMatrix.from_dense(bumped, rel.cols))
    pairs = [(i, a, b) for i in range(A.shape[0])
             for a in np.flatnonzero(A[i] == 1).tolist()
             for b in np.flatnonzero(A[i] == -1).tolist()
             if (F[:, a] != F[:, b]).any()]
    if pairs:
        i, a, b = rng.choice(pairs)
        swapped = A.copy()
        swapped[i, [a, b]] = swapped[i, [b, a]]
        out.append(CSRMatrix.from_dense(swapped, rel.cols))
    return out


@pytest.mark.parametrize("d, qs", _TRANSFORM_LEVELS)
def test_gather_transform_matches_fraction_reference(request, d, qs):
    """The dense reference transform against the Fraction builder, and
    the transform-free checks of level_torsion against the reference:
    heads, scale, rank count and annihilation verdict."""
    P = _transform_level(request, d, qs)
    F, scale = dt.iwasawa_matrix(P)
    ref, ref_scale = _fraction_transform(P)
    assert F == ref
    assert scale == ref_scale
    dt.check_structure(P, F)
    Fd = nl.dense(F)
    for head, u in zip(nl.dense(P.heads), P.levels):
        assert np.array_equal(head, Fd[:, P.offset(u)])
    # the rank certificate counts exactly the rank over F_p
    assert dist._character_rank(P, P.heads) == modular_rank(F) == F.rows
    assert _template_verdict(P, P.heads, P.relations)
    assert dt.annihilation_product(F, P.relations)
    for bad in _perturbed(P.relations, F, random.Random(d)):
        assert not _template_verdict(P, P.heads, bad)
        assert not dt.annihilation_product(F, bad)


def test_gather_transform_falls_back_to_object_entries(
        field7, monkeypatch):
    # numerators past int64 are kept exactly in an object array; the
    # factor is prime to every denominator, so the scale stays put
    big = ((1 << 61) - 1) ** 2
    m = modulus_of(field7, 7, 11)
    Q = build_presentation(field7, m)
    small, small_scale = dt.iwasawa_matrix(Q)
    want = tuple(tuple(x * big for x in r) for r in Q.heads.entries)

    def scaled(u, n2, G):
        au = alpha(u, n2, G)
        return GroupRingElt(au.group, [x * big for x in au.num], au.den)

    monkeypatch.setattr(dist, "alpha", scaled)
    P = build_presentation(field7, m)
    assert max(abs(x) for r in P.heads.entries for x in r) > 1 << 63
    assert P.heads.entries == want
    F, scale = dt.iwasawa_matrix(P, scaled)
    assert scale == small_scale
    assert F.entries == tuple(tuple(x * big for x in r)
                              for r in small.entries)
    dt.check_structure(P, F)
    Fd = nl.dense(F)
    for head, u in zip(nl.dense(P.heads), P.levels):
        assert np.array_equal(head, Fd[:, P.offset(u)])
    assert dist._character_rank(P, P.heads) == modular_rank(F) == F.rows
    assert _template_verdict(P, P.heads, P.relations)
    for bad in _perturbed(P.relations, F, random.Random(11)):
        assert not _template_verdict(P, P.heads, bad)
        assert not dt.annihilation_product(F, bad)
    assert not level_torsion(P).invariant_factors


# the rank certificate


def _times_one_minus_g(G, g):
    """alpha times (1 - g) for a fixed g in G_m: the transform still
    kills every relation but loses the characters with chi(g) = 1."""
    one_minus_g = ig.sub(ig.one(G.group), ig.basis(G.group, g))

    def mutant(u, n2, H):
        return ig.mul(alpha(u, n2, H), one_minus_g)

    return mutant


def test_rank_defect_is_caught(field7, monkeypatch):
    K = field7
    m = modulus_of(K, 7, 11)
    G = build_presentation(K, m).ray(m)
    g = G.group.elements()[1]
    mutant = _times_one_minus_g(G, g)
    monkeypatch.setattr(dist, "alpha", mutant)
    P = build_presentation(K, m)
    F, _ = dt.iwasawa_matrix(P, mutant)
    assert dt.annihilation_product(F, P.relations)
    assert _template_verdict(P, P.heads, P.relations)
    # the count is the rank exactly, below full rank, and the count mod
    # p agrees
    amb = G.group
    count = dist._character_rank(P, P.heads)
    assert count == modular_rank(F) < F.rows
    assert count == ref_chars.character_rank(P.heads.entries,
                                             amb.invariant_factors)
    with pytest.raises(OracleMismatch,
                       match=rf"transform rank {count} != #G_m = {F.rows}"):
        level_torsion(P)


def _axis_character_count(heads, factors, p):
    """The character count mod p with one d x d DFT table per invariant
    factor d, no CRT split (the reference for both counts).  The
    residues are Python ints in object arrays: a sum of d products of
    residues below 2^30 can pass int64."""
    X = (heads % p).astype(object).reshape(len(heads), *factors)
    for axis, d in enumerate(factors, start=1):
        root = ref_chars.root_of_unity(d, p)
        powers = np.array([pow(root, t, p) for t in range(d)], dtype=object)
        table = powers[np.multiply.outer(np.arange(d), np.arange(d)) % d]
        X = np.moveaxis(np.moveaxis(X, axis, -1) @ table % p, -1, axis)
    return int(X.reshape(len(heads), -1).any(axis=0).sum())


@pytest.mark.parametrize("factors", [(12,), (2, 30), (6, 36), (2, 2, 420)])
def test_crt_character_count_matches_axis_dft(factors):
    # heads that are indicators of cyclic subgroups <g> vanish at every
    # character nontrivial on g, so the counts fall below the order; the
    # exact count over Q and the CRT count mod p both match the axis DFT
    G = AbGroup(factors)
    rng = random.Random(sum(factors))
    p = ref_chars.character_primes(G.exponent)[0]
    gens = [tuple(rng.randrange(d) for d in factors) for _ in range(3)]
    heads = np.zeros((len(gens) + 1, G.order), dtype=np.int64)
    for row, g in zip(heads, gens):
        k = np.arange(G.element_order(g))[:, None]
        row[nl.indices(G, k * np.array(g, dtype=np.int64))] = 1
    heads[-1, rng.randrange(G.order)] = 5
    # a point mass, nonzero at every character, doubled beside minus
    # itself: the combination 1 * 2h + 2 * -h that the counts try first
    # is 0
    cancel = np.stack([2 * heads[-1], -heads[-1]])
    for rows in (heads[:1], heads[:-1], heads, cancel):
        want = _axis_character_count(rows, factors, p)
        assert dist._rational_rank(rows.tolist(), factors) == want
        assert ref_chars.character_count(rows.tolist(), factors, p) == want
    assert _axis_character_count(heads[:1], factors, p) < G.order
    assert _axis_character_count(cancel, factors, p) == G.order


# the exact count over Q against the count mod p, and against sympy

_SURVEY = runpy.run_path(str(Path(__file__).resolve().parents[1]
                             / "perfbench" / "inputs.py"))
# the torsion levels of tests/golden, every survey level, and the
# survey's stalled level
_RANK_LEVELS = sorted(
    {(7, ((7, 0), (11, 0), (23, 0))), (15, ((19, 0), (31, 0))),
     _SURVEY["SURVEY_STALLED"], *_SURVEY["SURVEY_LEVELS"]})


def _level(d, primes):
    K = make_field(d)
    return build_presentation(K, Modulus(K, tuple(
        (prime_above(K, q, i), 1) for q, i in primes)))


def _assert_rank_matches_reference(P):
    factors = P.ray(P.modulus).group.invariant_factors
    heads = P.heads.entries
    assert dist._character_rank(P, P.heads) \
        == ref_chars.character_rank(heads, factors)
    for head in heads:
        assert dist._rational_rank([head], factors) \
            == ref_chars.character_rank([head], factors)


@pytest.mark.parametrize(
    "d, primes", _RANK_LEVELS,
    ids=[f"d{d}-" + ",".join(f"p:{q}:{i}" for q, i in primes)
         for d, primes in _RANK_LEVELS])
def test_exact_rank_matches_mod_p_reference(d, primes):
    # all heads at once, and every head alone: most single heads have
    # rank below #G_m
    _assert_rank_matches_reference(_level(d, primes))


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("ORDIST_SLOW"),
                    reason="four-prime level, ORDIST_SLOW=1")
def test_exact_rank_matches_mod_p_reference_at_four_primes():
    # G_m = (2, 2, 4620): 192 cyclic quotients, 16 heads
    P = _level(7, ((7, 0), (11, 0), (23, 0), (29, 0)))
    assert P.ray(P.modulus).group.invariant_factors == (2, 2, 4620)
    _assert_rank_matches_reference(P)


def _chains(bound, prev=1):
    """Every invariant-factor tuple of a group of order at most bound
    whose factors are multiples of prev."""
    yield ()
    for d in range(max(prev, 2), bound + 1, prev):
        for rest in _chains(bound // d, d):
            yield (d,) + rest


def test_exact_rank_equals_sympy_rank_on_small_groups():
    # every group of order at most 24, with random heads and with
    # multiples of indicators of random subgroups, some with one entry
    # moved, so that some ranks fall below #G; the rank over Q of all
    # translates of the heads, by sympy, is the count
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(24)
    below = full = 0
    for factors in _chains(24):
        G = AbGroup(factors)
        elems = G.coordinates
        for _ in range(6):
            rows = []
            for _ in range(rng.randint(1, 3)):
                row = [0] * G.order
                if rng.random() < 0.85:
                    gens = rng.sample(elems, rng.randint(0, min(2, G.order)))
                    k = rng.choice([1, 2, -3])
                    for g in Subgroup.generated(G, gens).members():
                        row[g] = k
                    if rng.random() < 0.3:
                        row[rng.randrange(G.order)] += rng.choice([1, -1])
                else:
                    row = [rng.choice([0, 0, 0, 1, -1, 2])
                           for _ in range(G.order)]
                rows.append(row)
            translates = [[row[t] for t in G.translation(G.neg(g))]
                          for row in rows for g in elems]
            want = DomainMatrix([[ZZ(x) for x in t] for t in translates],
                                (len(translates), G.order),
                                ZZ).convert_to(QQ).rank()
            assert dist._rational_rank(rows, factors) == want, \
                (factors, rows)
            below += want < G.order
            full += want == G.order
    assert below > 40 and full > 100, (below, full)


@pytest.mark.parametrize("factors", [(2, 2, 4), (2, 4, 8), (3, 9), (2, 30),
                                     (6, 36), (11, 11), (2, 2, 2, 6)])
def test_cyclic_quotients_are_the_cyclic_subgroups_of_the_dual(factors):
    # the kernel of each quotient, one of each Sylow subgroup, against
    # the kernels of the characters g -> sum a_i g_i e / d_i mod e of G:
    # one quotient per cyclic subgroup of the dual, none twice
    G = AbGroup(factors)
    e, elems = G.exponent, G.coordinates
    want = {frozenset(g for g, x in enumerate(elems)
                      if not sum(y * z * (e // d) for y, z, d
                                 in zip(a, x, factors)) % e)
            for a in elems}
    layout, sylows = dist._cyclic_quotients(factors)
    assert sorted(layout) == list(range(G.order))
    got = []
    for combo in itertools.product(*(qs for _, _, qs in sylows)):
        # position k of the layout is the mixed-radix digits of the G_q
        kernel = set()
        for k, g in enumerate(layout):
            digits, zero = k, True
            for (_, n_q, _), (top, _, values) in zip(sylows[::-1],
                                                     combo[::-1]):
                digits, x = divmod(digits, n_q)
                zero = zero and values[x] == 0
            if zero:
                kernel.add(g)
        assert G.order // len(kernel) == math.prod(t for t, _, _ in combo)
        got.append(frozenset(kernel))
    assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_quotients_whose_phi_miss_the_order_are_refused(
        field7, monkeypatch, change):
    # the enumeration loses a quotient of G_2, or counts one twice: the
    # sum of phi(d) is then not #G_m
    quotients = dist._cyclic_quotients

    def wrong(factors):
        layout, sylows = quotients(factors)
        return layout, [(q, n_q, qs if q != 2 else
                         qs[:-1] if change == "drop" else qs + qs[-1:])
                        for q, n_q, qs in sylows]

    monkeypatch.setattr(dist, "_cyclic_quotients", wrong)
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    with pytest.raises(OracleMismatch, match=r"phi\(d\) of the cyclic "
                       r"quotients of \(30,\) sum to (15|45), not 30"):
        dist._character_rank(P, P.heads)
    with pytest.raises(OracleMismatch, match="cyclic quotients"):
        level_torsion(P)


def test_certificate_refuses_a_permuted_column(field7):
    # the twin of a transform column off its translate: a relation row
    # at sigma != 0 with two entries swapped is off its step's template,
    # though the row at 0 still passes the identity
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    F, _ = dt.iwasawa_matrix(P)
    A = nl.dense(P.relations)
    u, _, _, first = next(s for s in P._steps()
                          if P.ray(s[0]).group.order > 1
                          and len(set(A[s[3] + 1][A[s[3] + 1] != 0])) > 1)
    i = first + 1
    a = int(np.flatnonzero(A[i] == 1)[0])
    b = int(np.flatnonzero(A[i] == -1)[-1])
    bad = A.copy()
    bad[i, [a, b]] = bad[i, [b, a]]
    bad = CSRMatrix.from_dense(bad, P.n_gens)
    assert not dt.annihilation_product(F, bad)
    with pytest.raises(OracleMismatch, match=f"row {i} .* off its template"):
        dist._check_annihilation(P, P.heads, bad)


def test_certificate_refuses_a_head_off_the_fibres(field7):
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    # the trivial level: its head is the trace of G_m, constant on G_m
    bad = nl.dense(P.heads)
    bad[0, 0] += 1
    with pytest.raises(OracleMismatch, match="constant on the fibres"):
        dist._character_rank(P, IntMatrix(bad))


def test_certificate_refuses_lifts_that_miss_a_level(field7, monkeypatch):
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    heads = P.heads  # the Frobenius lifts read the true sections
    section = RayClassGroup.section

    def short(G, u):
        return section(G, u)[:-1] + (-1,)

    monkeypatch.setattr(RayClassGroup, "section", short)
    with pytest.raises(OracleMismatch, match="do not cover"):
        dist._character_rank(P, heads)


def test_template_row_off_the_fibre_is_refused(field7):
    # the row at 0 of a step loses one preimage: the rows stay
    # translates of it, but it is no longer -1 on the fibre over 0
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    A = nl.dense(P.relations)
    u, _, t, first = next(s for s in P._steps()
                          if P.ray(s[0]).group.order == 1)
    j = int(np.flatnonzero(A[first, P.offset(t):])[0]) + P.offset(t)
    A[first, j] = 0
    with pytest.raises(OracleMismatch, match=f"row {first} .* off its template"):
        dist._check_annihilation(P, P.heads,
                                 CSRMatrix.from_dense(A, P.n_gens))


def test_transitions_that_do_not_compose_are_refused(field7, monkeypatch):
    # the identity G_m -> G_m read through the negation of G_m, whose
    # exponent exceeds 2: the fibres stay the same sets, but G_m -> G_m
    # -> G_u no longer agrees with G_m -> G_u (the map of each step
    # G_t -> G_u below the top level is not touched)
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    heads = P.heads
    u = P.modulus
    G = P.ray(u)
    g = G.group
    assert g.exponent > 2
    neg = g.indices(g.neg(c) for c in g.coordinates)
    G.section(u)  # kept from the true transition, not the negated one
    transition, section = RayClassGroup.transition, RayClassGroup.section

    def negated(H, v):
        hom = transition(H, v)
        if (H, v) != (G, u):
            return hom
        return AbHom(hom.domain, hom.codomain,
                     tuple(tuple(-x for x in row) for row in hom.matrix))

    def negated_section(H, v):
        lift = section(H, v)
        return lift if (H, v) != (G, u) else tuple(lift[s] for s in neg)

    monkeypatch.setattr(RayClassGroup, "transition", negated)
    monkeypatch.setattr(RayClassGroup, "section", negated_section)
    with pytest.raises(OracleMismatch, match="do not compose"):
        dist._check_annihilation(P, heads, P.relations)


def test_template_identity_sees_a_twisted_head(field7):
    # a head translated by an element outside ker(G_m -> G_u) is still
    # constant on the fibres, but no longer kills the step's template
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    G = P.ray(P.modulus)
    amb = G.group
    H = nl.dense(P.heads)
    i, u = next((i, u) for i, u in enumerate(P.levels)
                if P.ray(u).group.order > 1)
    lift = G.section(u)
    H[i] = H[i][amb.translation(amb.neg(amb.coordinates[lift[1]]))]
    dist._character_rank(P, IntMatrix(H))  # the structure still holds
    with pytest.raises(OracleMismatch, match="fails to annihilate"):
        dist._check_annihilation(P, IntMatrix(H), P.relations)


def test_level_torsion_never_eliminates_the_transform(field7, monkeypatch):
    # the rank certificate counts characters: only the p-local passes
    # of oracle (b) reach the modular elimination, and each one gets the
    # sparse relations themselves, never a dense copy or the heads
    seen = []
    orig = zlinalg._local_valuations

    def recording(A, p, K):
        seen.append(A)
        return orig(A, p, K)

    monkeypatch.setattr(zlinalg, "_local_valuations", recording)
    monkeypatch.setattr(dist, "_local_valuations", recording)
    P = build_presentation(field7, modulus_of(field7, 7, 11, 23))
    assert level_torsion(P).invariant_factors == (2,)
    assert seen
    assert all(A is P.relations for A in seen)


# the largest survey level of each field, and the headline level
_LOCAL_PASS_LEVELS = [
    (7, (11, 23)), (19, (5, 7, 17)), (1, (5, 13, 17)), (3, (7, 13, 19)),
    (11, (3, 5, 37)), (15, (3, 5, 23)), (23, (3, 31)), (7, (7, 11, 23)),
]


@pytest.mark.parametrize("d, qs", _LOCAL_PASS_LEVELS)
def test_local_pass_matches_dense_reference_on_levels(request, d, qs):
    # oracle (b)'s sparse pass against the dense layered elimination at
    # every p dividing S = w * product_bound * |T|, with K = v_p(S) + 2
    P = _transform_level(request, d, qs)
    S = P.field.w_K * P.product_bound * level_torsion(P).order
    dense = IntMatrix(P.relations.entries, P.n_gens)
    for p in sorted(zlinalg._prime_divisors(S)):
        K = zlinalg._val(S, p) + 2
        assert zlinalg._local_valuations(P.relations, p, K) \
            == dt._layered_elimination(dense, p, K)


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("ORDIST_SLOW"),
                    reason="four-prime level, ORDIST_SLOW=1")
def test_four_prime_level_without_the_transform():
    # d = 7, m = 7*11*23*29: #G_m = 18480, 25680 generators, 8007
    # relations.  The transform would take 3.8 GB.  The whole torsion
    # command runs on the sparse relations and 16 heads: oracle (a), the
    # head rank, the templates, oracle (b) and both bounds, so exit 0
    # means every check passed.  A child process, so that its peak RSS
    # is its own
    code = textwrap.dedent("""
        import resource, sys
        import ordist.cli
        code = ordist.cli.main(["torsion", "-d", "7", "-m",
                                "p:7,p:11:0,p:23:0,p:29:0", "--no-cache"])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        print(peak, file=sys.stderr)
        sys.exit(code)
        """)
    src = os.path.dirname(os.path.dirname(dist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout)["result"]
    assert result["torsion_invariants"] == [2, 2, 2, 2]
    assert (result["product_bound"], result["borne"]) == (16, 16)
    assert (result["generators"], result["relations"], result["rank"]) \
        == (25680, 8007, 18480)
    assert int(r.stderr.splitlines()[-1]) < 1536, r.stderr


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("ORDIST_SLOW"),
                    reason="two-prime ceiling level, ORDIST_SLOW=1")
def test_ceiling_presentation_builds_from_prime_power_units():
    # d = 7, m = p991 p1009, norm 999,919: the unit part of G_m is built
    # from the two prime powers, not from the 998,920 units mod m.  With
    # h = 1 and mu = {1, -1}, #G_u = phi(u) / 2 for u != 1, so there are
    # 1 + 495 + 504 + 498,960 generators and 2 + 495 + 504 relations.  A
    # child process, so that its time and peak RSS are its own
    code = textwrap.dedent("""
        import json, resource, sys, time
        from ordist.distribution import build_presentation
        from ordist.quadfield import Modulus, make_field
        start = time.process_time()
        K = make_field(7)
        m = Modulus(K, tuple((K.splitting_type(q)[1][0], 1)
                             for q in (991, 1009)))
        P = build_presentation(K, m)
        print(json.dumps([P.n_gens, P.relations.rows,
                          P.ray(m).group.order]))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        print(f"{time.process_time() - start:.2f} s, {peak} MB",
              file=sys.stderr)
        """)
    src = os.path.dirname(os.path.dirname(dist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    K = make_field(7)
    order = K.h * (991 - 1) * (1009 - 1) // K.w_K
    assert json.loads(r.stdout) == [499_960, 1_001, order]
    print(r.stderr.strip())


@st.composite
def _annihilation_case(draw):
    """(F, rel) with rel = [R | I] against F = [A | -A R^T], so every
    row of rel is killed, then possibly one entry of rel perturbed, or
    one column in two rows by opposite amounts; all-zero rows of rel
    are mixed in.  Entries may pass 2^63."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    big = draw(st.sampled_from([1, ((1 << 61) - 1) ** 2]))
    A = [[draw(st.sampled_from([0, 0, 1, -1, 7])) * big
          for _ in range(cols)] for _ in range(rows)]
    R = [[draw(st.sampled_from([0, 0, 1, -1, 3, big])) for _ in range(cols)]
         for _ in range(n)]
    F = [a + [-sum(x * y for x, y in zip(a, r)) for r in R] for a in A]
    rel = [r + [int(i == k) for k in range(n)] for i, r in enumerate(R)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, cols + n - 1))
        t = draw(st.sampled_from([1, -2, big]))
        rel[i][j] += t
        if n > 1 and draw(st.booleans()):
            # the opposite change in a second row cancels in the sum
            rel[(i + 1) % n][j] -= t
    for _ in range(draw(st.integers(0, 2))):
        rel.insert(draw(st.integers(0, len(rel))), [0] * (cols + n))
    return (IntMatrix(F, cols + n),
            IntMatrix(rel, cols + n))


@settings(deadline=None, max_examples=150)
@given(_annihilation_case())
def test_nonzero_annihilation_matches_dense_product(case):
    # the reference's product check, against the plain matrix product
    F, rel = case
    dense = nl.dense(F).astype(object) @ nl.dense(rel).astype(object).T
    assert dt.annihilation_product(F, rel) == (not dense.any())
    for r in range(rel.rows):  # one-row rel, as in the old certificate
        one = IntMatrix(rel.entries[r:r + 1], rel.cols)
        assert dt.annihilation_product(F, one) == (not dense[:, r].any())


def test_relation_rows_are_preimage_cosets(field7):
    # upper-level support of each row is one full transition fiber, a
    # coset of the transition kernel, so no lift choice is involved
    P = build_presentation(field7, modulus_of(field7, 7, 23))
    gens = tp.gen_index(P)
    for row in P.relations.entries:
        top = max(gens[i][0].n_primes for i, x in enumerate(row) if x)
        support = [gens[i] for i, x in enumerate(row)
                   if x and gens[i][0].n_primes == top]
        (t_primes,) = {u.primes for u, _ in support}
        Gt = next(P.ray(u) for u in P.levels if u.primes == t_primes)
        g = Gt.group
        base = support[0][1]
        diffs = {g.add(sig, g.neg(base)) for _, sig in support}
        for x in diffs:
            for y in diffs:
                assert g.add(x, y) in diffs
        assert g.order % len(support) == 0


def test_divisor_block_ranks(field7):
    # columns indexed by pairs (u, sigma) with u | n span a lattice of
    # rank exactly #G_n: every character of G_n is nonzero on the
    # column built at its conductor level, and all such columns live
    # in the embedded copy of Q[G_n]
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    F, _ = dt.iwasawa_matrix(P)
    for n in P.levels:
        cols = [j for j, (u, _) in enumerate(tp.gen_index(P))
                if u.divides(n)]
        block = IntMatrix(
            [[row[j] for j in cols] for row in F.entries], len(cols))
        assert modular_rank(block) == P.ray(n).group.order


# dual oracle plumbing


def _literal_oracle_b(P):
    """Reference oracle (b): the integer kernel of the transform by a
    direct echelon, modulo the relation lattice, on the array code
    of numpy_linalg."""
    kern = nl.rational_kernel(dt.iwasawa_matrix(P)[0])
    rel_rows = [list(r) for r in P.relations.entries if any(r)]
    return nl.subquotient_torsion(kern, rel_rows)


# the small levels of acceptance criterion 6
_CRITERION_6_LEVELS = [(7, ()), (7, (7,)), (7, (11,)), (7, (23,)),
                       (7, (7, 11)), (7, (7, 23)), (7, (11, 23)),
                       (15, (19,)), (15, (19, 31)), (23, (3,))]


def test_fast_kernel_path_agrees_with_literal():
    for d, qs in _CRITERION_6_LEVELS:
        K = make_field(d)
        P = build_presentation(K, modulus_of(K, *qs))
        literal = _literal_oracle_b(P)
        assert literal.rank == 0
        assert literal.invariant_factors == \
            level_torsion(P).invariant_factors, (d, qs)


def test_stalled_direct_kernel_level_reports_z2():
    # a 120 x 193 transform on which the direct kernel echelon stalled
    K = make_field(19)
    P = build_presentation(K, modulus_of(K, 5, 7, 11))
    assert level_torsion(P).invariant_factors == (2,)
    assert torsion_bound(P) == (2, 2)


@pytest.mark.parametrize("d, qs, wrong", [
    (19, (5, 7, 11), ()),   # hides the Z/2: caught at p = 2 | w
    (7, (7, 11), (3,)),     # invents a Z/3: caught at p = 3 | |T|
    (7, (7, 11), (2,)),     # invents a Z/2: caught at p = 2
])
def test_wrong_cokernel_torsion_is_caught_p_locally(
        monkeypatch, d, qs, wrong):
    K = make_field(d)
    P = build_presentation(K, modulus_of(K, *qs))
    n_top = P.ray(P.modulus).group.order

    def fake_cokernel(A, ambient_rank):
        return AbGroup(wrong + (0,) * n_top)

    monkeypatch.setattr(dist, "cokernel", fake_cokernel)
    with pytest.raises(OracleMismatch, match="oracles disagree at p"):
        level_torsion(P)


def test_bound_checks_survive_optimize():
    # a torsion the product bound does not divide must raise even when
    # python -O strips assert statements
    code = textwrap.dedent("""
        import ordist.distribution as dist
        from ordist.quadfield import Modulus, make_field
        from ordist.zlinalg import AbGroup
        K = make_field(7)
        p11 = K.splitting_type(11)[1][0]
        P = dist.build_presentation(K, Modulus(K, ((p11, 1),)))
        P._torsion = AbGroup((3,))
        try:
            dist.torsion_bound(P)
        except dist.OracleMismatch as exc:
            print("mismatch:", exc)
        """)
    src = os.path.dirname(os.path.dirname(dist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("mismatch: torsion exponent 3"), r.stdout


# bounds


def test_torsion_bound_rejects_norm_sharing_w():
    K = make_field(23)  # 2 splits since -23 is 1 mod 8
    P = build_presentation(K, modulus_of(K, 2))
    with pytest.raises(NotCoprimeToW):
        torsion_bound(P)


@functools.lru_cache(maxsize=None)
def _bound_case(d, qs):
    K = make_field(d)
    P = build_presentation(K, modulus_of(K, *qs))
    return K.w_K, level_torsion(P), torsion_bound(P)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from([(7, (11,)), (7, (23,)), (7, (11, 23)),
                        (15, (19,)), (15, (19, 31)), (23, (3,)),
                        (23, (3, 13)), (7, (7, 11))]))
def test_bound_divisibility_properties(case):
    w, tor, (product, borne) = _bound_case(*case)
    assert product % tor.exponent == 0
    assert borne % tor.order == 0
    for ell in (3, 5, 7):
        if w % ell:
            assert tor.order % ell != 0 or tor.order == 1


# parity functional


def test_nu_needs_three_primes(field7):
    P = build_presentation(field7, modulus_of(field7, 7, 11))
    with pytest.raises(WrongShape):
        nu(P, [0] * P.n_gens)


def test_nu_rejects_wrong_length(triple7):
    with pytest.raises(WrongShape):
        nu(triple7, [0, 1, 2])


def test_nu_counts_only_full_support(triple7):
    P = triple7
    v = [0] * P.n_gens
    m = P.modulus
    v[P.offset(m)] = 1  # (m, 0): the zero has index 0
    assert nu(P, v) == 1
    # lower levels never contribute
    u = P.levels[1]
    v[P.offset(u)] = 17
    assert nu(P, v) == 1


def test_nu_even_on_every_relation_row(triple7):
    P = triple7
    assert all(nu(P, row) % 2 == 0 for row in P.relations.entries)
    # the certificate's one sparse product gives the same values
    assert P.relations.dot(dist._full_support(P)) == \
        [nu(P, row) for row in P.relations.entries]


# the certificate


def test_certificate_reproduces_published_example(field7):
    ps = [prime_above(field7, q) for q in (7, 11, 23)]
    cert = torsex_certificate(field7, *ps)
    assert cert.in_kernel
    assert cert.nu_R == 165
    assert cert.nu_R % 2 == 1
    assert cert.nu_parity_of_U
    assert cert.conclusion
    assert len(cert.R) == 886


def test_certificate_element_is_odd_against_relations(field7, triple7):
    # odd value + even rows means R stays outside the relation lattice,
    # certifying the class of R is a nonzero torsion element
    ps = [prime_above(field7, q) for q in (7, 11, 23)]
    cert = torsex_certificate(field7, *ps)
    P = triple7
    assert nu(P, cert.R) % 2 == 1


def test_odd_relation_row_breaks_the_parity_verdict(field7, monkeypatch):
    # one relation row gains a +1 on the top block: its nu turns odd,
    # so the parity lemma, and with it the conclusion, must fail
    orig = dist.DeltaPresentation._relation_matrix

    def odd_row(self):
        A = nl.dense(orig(self))
        A[0, self.offset(self.modulus)] += 1
        return CSRMatrix.from_dense(A, self.n_gens)

    monkeypatch.setattr(dist.DeltaPresentation, "_relation_matrix", odd_row)
    ps = [prime_above(field7, q) for q in (7, 11, 23)]
    cert = torsex_certificate(field7, *ps)
    assert cert.in_kernel and cert.nu_R == 165
    assert not cert.nu_parity_of_U
    assert not cert.conclusion


def test_certificate_rejects_norm_one_mod_four(field7):
    ps = [prime_above(field7, q) for q in (11, 23, 29)]
    assert ps[2].norm() == 29  # split, 1 mod 4
    with pytest.raises(HypothesisFailed):
        torsex_certificate(field7, *ps)


def test_certificate_rejects_duplicates(field7):
    p7, p11 = prime_above(field7, 7), prime_above(field7, 11)
    with pytest.raises(HypothesisFailed):
        torsex_certificate(field7, p7, p11, p11)


def test_certificate_rejects_nonprincipal():
    K = make_field(5)
    ps = [prime_above(K, q) for q in (3, 7, 11)]
    with pytest.raises(HypothesisFailed):
        torsex_certificate(K, *ps)


def test_certificate_rejects_wrong_w():
    K = make_field(3)
    ps = [prime_above(K, q) for q in (7, 13, 19)]
    with pytest.raises(HypothesisFailed):
        torsex_certificate(K, *ps)


# the search


def test_search_finds_published_triple(field7):
    triples = search_torsex(field7, 25)
    norms = {tuple(sorted(p.norm() for p in t)) for t in triples}
    assert (7, 11, 23) in norms


def test_search_field_fifteen_contains_19_31_79():
    K = make_field(15)
    triples = search_torsex(K, 80)
    norms = {tuple(sorted(p.norm() for p in t)) for t in triples}
    assert (19, 31, 79) in norms
    # the split but non-principal primes stay out
    for t in norms:
        assert 23 not in t and 47 not in t


def test_search_empty_for_even_class_field():
    K = make_field(5)
    assert search_torsex(K, 100) == []


def test_search_triples_have_distinct_characteristics(field7):
    for trio in search_torsex(field7, 30):
        assert len({p.rational_prime() for p in trio}) == 3
        for p in trio:
            assert p.norm() % 4 == 3
            assert p.is_principal_generator() is not None
