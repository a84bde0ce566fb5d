"""The presentation layer on mixed-radix indices against the tuple loops
it replaced (tests/tuple_presentation.py), and the per-group memos.

Residue unit groups, ray class relation data, the relation matrix and
the trace-ideal rows must come out exactly as before: the same dlog
items in the same order, the same arrays, the same row order.
"""

import os

import numpy as np
import numpy_linalg as nl
import pytest

import ordist.groupring as gr
import tuple_presentation as tp
from conftest import prime_above
from ordist.distribution import build_presentation
from ordist.groupring import alpha, trace_ideal, trace_ideal_quotient
from ordist.quadfield import Modulus, NotSquarefree, QuadField, make_field
from ordist.rayclass import residue_units
from ordist.rayclass import ray_class_group
from ordist.zlinalg import AbHom, OrdistError, cokernel
from test_distribution import _TRANSFORM_LEVELS, _transform_level


def _mod(K, *spec):
    """spec: q or (q, exponent) or (q, index, exponent)."""
    parts = []
    for s in spec:
        q, idx, e = (s, 0, 1) if isinstance(s, int) else \
            (s[0], 0, s[1]) if len(s) == 2 else s
        parts.append((prime_above(K, q, idx), e))
    return Modulus(K, tuple(parts))


# beyond the transform levels, which include p11^2 for d = 7: the inert
# 3 for d = 7 and d = 1, the cube of the ramified prime above 2 for
# d = 1, and for d = 3 the inert 2 squared times p7, where two inertia
# groups coincide
_EXTRA = [(7, (3,)), (1, (3,)), (1, ((2, 3),)), (3, ((2, 2), 7))]


def _level_id(level):
    d, qs = level
    return f"d{d}-" + ("*".join(str(q) if isinstance(q, int)
                                else f"{q[0]}^{q[-1]}" for q in qs) or "1")


def _transform_divisors():
    seen, out = set(), []
    for d, qs in _TRANSFORM_LEVELS:
        K = make_field(d)
        for u in _mod(K, *qs).divisors():
            if (d, u.primes) not in seen:
                seen.add((d, u.primes))
                out.append((K, u))
    return out


def _same_units(K, n):
    group, dlog, mu = residue_units(K, n)
    want = tp.residue_units(K, n)
    assert group == want[0]
    assert list(dlog.items()) == list(want[1].items())
    assert mu == want[2]


def test_residue_units_match_tuple_loop_on_transform_divisors():
    cases = _transform_divisors()
    assert len(cases) == 43
    for K, n in cases:
        _same_units(K, n)


@pytest.mark.parametrize("d, qs", _EXTRA, ids=map(_level_id, _EXTRA))
def test_residue_units_match_tuple_loop_on_prime_powers(d, qs):
    K = make_field(d)
    for n in _mod(K, *qs).divisors():
        _same_units(K, n)


@pytest.mark.parametrize("d, qs", _TRANSFORM_LEVELS + _EXTRA,
                         ids=map(_level_id, _TRANSFORM_LEVELS + _EXTRA))
def test_relation_matrix_and_trace_rows_match_tuple_loops(request, d, qs):
    if (d, qs) in _TRANSFORM_LEVELS:
        P = _transform_level(request, d, qs)
    else:
        K = make_field(d)
        P = build_presentation(K, _mod(K, *qs))
    want = tp.relation_matrix(P)
    assert all(type(x) is int for x in P.relations.data)
    assert P.relations.entries == want.entries
    for u in P.levels:
        G = P.ray(u)
        rows = trace_ideal(G)
        assert all(type(x) is int for x in rows.data)
        # the same rows in the same order
        assert np.array_equal(nl.dense(rows), tp.trace_ideal_rows(G))


def _compose(K):
    def compose(f, g):
        return K.form_of_ideal(
            K.ideal_of_form(f).multiply(K.ideal_of_form(g)))
    return compose


@pytest.mark.parametrize("d", [5, 14, 15, 23, 47, 71])
def test_class_group_matches_tuple_bfs(d):
    K = make_field(d)
    compose = _compose(K)
    gens = tp.greedy_generators(K.form_reps, compose, K.principal_form(),
                                K.h)
    want = tp.ab_discover(K.h, compose, gens, K.principal_form())
    assert K.class_group == want[0]
    assert list(K._classes[1].items()) == list(want[1].items())


def test_class_group_structure_matches_all_forms():
    # the structure from greedy generators against the relations among
    # all h forms, on every field with squarefree d < 400
    wrong = []
    for d in range(1, 400):
        try:
            K = QuadField(d)
        except NotSquarefree:
            continue
        want, _ = tp.ab_discover(K.h, _compose(K), list(K.form_reps),
                                 K.principal_form())
        if K.class_group.invariant_factors != want.invariant_factors:
            wrong.append(d)
    assert wrong == []


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("ORDIST_SLOW"),
                    reason="four-prime level, ORDIST_SLOW=1")
def test_residue_units_match_tuple_loop_on_four_primes():
    # the relation matrix (1.6 GB dense) and the top trace-ideal rows
    # (0.95 GB) are compared on every smaller level only
    K = make_field(7)
    m = _mod(K, 7, 11, 23, 29)
    for n in m.divisors():
        _same_units(K, n)
        if n != m:
            G = ray_class_group(K, n)
            assert np.array_equal(nl.dense(trace_ideal(G)),
                                  tp.trace_ideal_rows(G))


def test_unit_count_is_checked_against_phi(monkeypatch):
    K = make_field(7)
    monkeypatch.setattr(Modulus, "phi", lambda self: 5)
    with pytest.raises(OrdistError, match="found 10 residue units"):
        residue_units(K, _mod(K, 11))


# -- per-group memos ----------------------------------------------------------

@pytest.fixture
def fresh_rays():
    """Ray class groups built anew, so no memo is filled beforehand."""
    ray_class_group.cache_clear()


def test_transition_onto_is_checked_on_indices(fresh_rays, monkeypatch):
    K = make_field(7)
    G = ray_class_group(K, _mod(K, 7, 11))
    monkeypatch.setattr(AbHom, "index_image",
                        property(lambda self: (0,) * self.domain.order))
    with pytest.raises(OrdistError, match="transition must be onto"):
        G.transition(_mod(K, 11))


def test_shared_divisor_builds_trace_quotient_once(fresh_rays, monkeypatch):
    built = []
    orig = gr.trace_ideal

    def recording(G):
        built.append(G.modulus.label())
        return orig(G)

    monkeypatch.setattr(gr, "trace_ideal", recording)
    K = make_field(7)
    levels = [_mod(K, 11, 23), _mod(K, 11, 29)]
    bounds = [build_presentation(K, m).product_bound for m in levels]
    assert bounds == [1, 1]
    # (1) and p11 are shared: six groups, eight quotients asked for
    assert sorted(built) == sorted(["(1)", "p:11:0", "p:23:0", "p:29:0",
                                    "p:11:0,p:23:0", "p:11:0,p:29:0"])


def test_frobenius_lift_computed_once_per_group_and_prime(fresh_rays,
                                                         monkeypatch):
    # each lift is checked once against the Frobenius, by AbHom.apply,
    # which nothing else on this path calls
    solved = []
    orig = AbHom.apply

    def counting(*args):
        solved.append(args)
        return orig(*args)

    monkeypatch.setattr(AbHom, "apply", counting)
    K = make_field(7)
    m = _mod(K, 7, 11, 23)
    G = ray_class_group(K, m)
    for u in m.divisors():
        alpha(u, m, G)
        alpha(u, m, G)
    lifts = {p: G.frobenius(p) for p, _ in m.primes}
    assert len(solved) == 3
    for p, _ in m.primes:
        lam, exact = G.frobenius(p)
        assert not exact and lam is lifts[p][0]
    assert len(solved) == 3


def test_equal_order_groups_keep_their_own_results(fresh_rays):
    # four groups of order 5: the two primes above 11 in Q(sqrt(-7)),
    # one above 11 in Q(sqrt(-19)), and p2 p11 in Q(sqrt(-7)), whose
    # quotient is trivial where the others have rank 4
    K7, K19 = make_field(7), make_field(19)
    groups = [ray_class_group(K7, _mod(K7, 11)),
              ray_class_group(K7, _mod(K7, (11, 1, 1))),
              ray_class_group(K19, _mod(K19, 11)),
              ray_class_group(K7, _mod(K7, 2, 11))]
    assert [G.group.order for G in groups] == [5, 5, 5, 5]
    got = [trace_ideal_quotient(G) for G in groups]
    assert got[0][0].rank == 4 and got[3][0].is_trivial
    for G, res in zip(groups, got):
        assert trace_ideal_quotient(G) is res
        quot = cokernel(tp.trace_ideal_rows(G), G.group.order)
        assert res == (quot, quot.exponent)
    assert len({id(r) for r in got}) == len(groups)
    for G in groups:
        for p, _ in G.modulus.primes:
            lift, exact = G.frobenius(p)
            assert not exact and G.frobenius(p)[0] is lift
            # the lift of this group, over the Artin image one level down
            n2 = G.modulus.without(p)
            assert G.transition(n2).apply(lift) == \
                ray_class_group(G.field, n2).artin(p)
