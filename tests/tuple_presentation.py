"""Reference presentation builders on element tuples.

These are the loops that ordist used before the presentation moved
onto mixed-radix indices:

  * residue_units: (O/n)^x by enumerating the coprime residues as
    (x, y) tuples, a greedy generator harvest that multiplies field
    elements one pair at a time, and the word-recording breadth-first
    search of the old ab_discover;
  * gen_index: the (u, sigma) of every generator, the column list
    that the presentation kept before its columns became block offsets
    plus indices;
  * relation_matrix: one dense Python row per relation;
  * coset_rows: the trace-ideal rows, each inertia group's cosets
    labelled element by element from its element tuples;
  * frame_trace_rows and frame_translation_rows: the coset rows and
    translation matrices of a synthetic Sylow frame
    (cohomology.SylowFrameSynthetic), on the frame's element tuples.

The tests compare the index code against them exactly, including the
order of the dlog dictionary and of the rows.
"""

from __future__ import annotations

import itertools

import numpy as np

from numpy_linalg import coordinates, indices, smith_coordinates
from ordist.cohomology import _porder, _validate_subset
from ordist.quadfield import _residue_reduce
from ordist.zlinalg import (
    AbGroup,
    GeneratorsInsufficient,
    IntMatrix,
    LinalgError,
    OrdistError,
)


def closure(mul, start, gens) -> set:
    out = set(start)
    frontier = list(out)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = mul(e, g)
                if f not in out:
                    out.add(f)
                    nxt.append(f)
        frontier = nxt
    return out


def greedy_generators(elements, mul, identity, order) -> list:
    gens = []
    span = {identity}
    for x in elements:
        if len(span) == order:
            break
        if x not in span:
            gens.append(x)
            span = closure(mul, span, [x])
    return gens


def ab_discover(order, mul, gens, identity):
    """The old word-recording BFS, relation set and Smith step."""
    k = len(gens)
    words = {identity: (0,) * k}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            w = words[e]
            for i, g in enumerate(gens):
                f = mul(e, g)
                if f not in words:
                    words[f] = tuple(w[j] + (1 if j == i else 0)
                                     for j in range(k))
                    nxt.append(f)
        frontier = nxt
    if len(words) < order:
        raise GeneratorsInsufficient(
            f"generators span {len(words)} of {order} elements")
    if len(words) > order:
        raise LinalgError("closure exceeds declared order")
    if k == 0:
        return AbGroup(()), {identity: ()}
    rel = set()
    for e, w in words.items():
        for i, g in enumerate(gens):
            wf = words[mul(e, g)]
            row = tuple(w[j] + (1 if j == i else 0) - wf[j] for j in range(k))
            if any(row):
                rel.add(row)
    rel = sorted(rel)
    group, to, _ = smith_coordinates(IntMatrix.from_rows(rel, k) if rel
                                     else IntMatrix.zeros(0, k), k)
    if not group.is_finite:
        raise LinalgError("black-box group is not finite as presented")
    inv = group.invariant_factors
    if (group.order or 1) != order:
        raise LinalgError("relation lattice volume does not match order")
    Rm = to.tolist()
    dlog = {}
    for e, w in words.items():
        full = [sum(w[i] * Rm[i][j] for i in range(k))
                for j in range(len(inv))]
        dlog[e] = tuple(x % d for x, d in zip(full, inv))
    return group, dlog


def residue_gens(K, n):
    """(units, mul, identity, order, harvested generators) of (O/n)^x."""
    nid = n.ideal()
    c, a = nid.content, nid.a
    tests = []
    for p, _ in n.primes:
        q = p.rational_prime()
        if p.content == 1:
            bx, _ = p.beta()
            tests.append(("s", q, bx))
        else:
            tests.append(("i", q, 0))

    def is_unit(u):
        x, y = u
        for kind, q, bx in tests:
            if kind == "s":
                if (x - y * bx) % q == 0:
                    return False
            elif x % q == 0 and y % q == 0:
                return False
        return True

    units = [(x, y) for y in range(c) for x in range(c * a)
             if is_unit((x, y))]
    order = n.phi()
    if len(units) != order:
        raise OrdistError(f"found {len(units)} residue units, "
                          f"phi(n) = {order}")

    def mul(u, v):
        return _residue_reduce(nid, K.elt_mul(u, v))

    ident = _residue_reduce(nid, (1, 0))
    return units, mul, ident, order, \
        greedy_generators(units, mul, ident, order)


def residue_units(K, n):
    """(AbGroup, dlog, mu_images) of (O/n)^x, the old way."""
    if n.is_one():
        return AbGroup(()), {(0, 0): ()}, [()] * K.w_K
    _, mul, ident, order, gens = residue_gens(K, n)
    group, dlog = ab_discover(order, mul, gens, ident)
    z = _residue_reduce(n.ideal(), K.zeta())
    mu = []
    cur = ident
    for _ in range(K.w_K):
        mu.append(dlog[cur])
        cur = mul(cur, z)
    return group, dlog, mu


def gen_index(P) -> tuple:
    """(u, sigma) of every generator of P, in column order: the blocks
    in level order, each over the elements of G_u in index order."""
    return tuple((u, e) for u in P.levels
                 for e in P.ray(u).group.elements())


def relation_matrix(P) -> IntMatrix:
    """The old DeltaPresentation._relation_matrix: one Python row per
    relation, filled through element-tuple column lookups."""
    pos = {u.primes: {e: i for i, e in enumerate(P.ray(u).group.elements())}
           for u in P.levels}

    def column_of(u, sigma):
        return P.offset(u) + pos[u.primes][tuple(sigma)]

    rows = []
    for u in P.levels:
        Gu = P.ray(u)
        u_els = Gu.group.elements()
        for p, e_top in P.modulus.primes:
            vu = u.v_p(p)
            for e in range(1, e_top - vu + 1):
                t = u.with_exponent(p, vu + e)
                Gt = P.ray(t)
                down = Gt.transition(u)
                pre = {}
                for tau in Gt.group.elements():
                    pre.setdefault(down.apply(tau), []).append(tau)
                lam = Gu.artin(p) if vu == 0 else None
                for sigma in u_els:
                    row = [0] * P.n_gens
                    row[column_of(u, sigma)] += 1
                    if lam is not None:
                        tw = Gu.group.add(sigma, Gu.group.neg(lam))
                        row[column_of(u, tw)] -= 1
                    for tau in pre[sigma]:
                        row[column_of(t, tau)] -= 1
                    rows.append(row)
    return IntMatrix.from_rows(rows, P.n_gens)


def coset_rows(group, subgroup_elements) -> np.ndarray:
    """The old _coset_rows: each subgroup given by its element tuples,
    every coset labelled by the least index of its members."""
    n = group.order
    coords = coordinates(group)
    k = len(group.invariant_factors)
    cosets, seen = [], set()
    for els in subgroup_elements:
        els = tuple(els)
        idx = np.unique(indices(
            group, np.array(els, dtype=np.int64).reshape(len(els), k)))
        key = tuple(idx.tolist())
        if key in seen:
            continue
        seen.add(key)
        label = np.full(n, n, dtype=np.int64)
        for h in coords[idx]:
            np.minimum(label, indices(group, coords, h), out=label)
        cosets += np.argsort(label, kind="stable").reshape(-1, len(idx)) \
            .tolist()
    cosets.sort(key=lambda c: [-g for g in c])
    rows = np.zeros((len(cosets), n), dtype=np.int64)
    for i, c in enumerate(cosets):
        rows[i, c] = 1
    return rows


def trace_ideal_rows(G) -> np.ndarray:
    """The old trace_ideal rows of a ray class group."""
    return coset_rows(G.group, [G.inertia(p).elements
                                for p, _ in G.modulus.primes])


def _carrier(moduli):
    elements = tuple(itertools.product(*(range(d) for d in moduli)))
    index = {e: i for i, e in enumerate(elements)}
    return elements, index


def _padd(moduli, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, moduli))


def _pscale(moduli, a, k):
    return tuple((k * x) % d for x, d in zip(a, moduli))


def frame_trace_rows(frame, subset, composite_last: bool) -> list:
    """The old cohomology._trace_rows: sorted distinct coset rows."""
    moduli = frame.moduli
    elements, index = _carrier(moduli)
    rows = set()
    for i in _validate_subset(frame, subset):
        gen = frame.j if (composite_last and i == frame.m) else frame.tau(i)
        sub = [_pscale(moduli, gen, k) for k in range(_porder(moduli, gen))]
        seen = set()
        for sigma in elements:
            if sigma in seen:
                continue
            coset = [_padd(moduli, sigma, t) for t in sub]
            seen.update(coset)
            row = [0] * len(elements)
            for e in coset:
                row[index[e]] = 1
            rows.add(tuple(row))
    return sorted(rows)


def frame_translation_rows(frame, elt) -> list:
    """The old cohomology._translation_rows."""
    elements, index = _carrier(frame.moduli)
    size = len(elements)
    rows = [[0] * size for _ in range(size)]
    for a, sigma in enumerate(elements):
        rows[a][index[_padd(frame.moduli, sigma, elt)]] = 1
    return rows
