"""Reference group ring on indices: the ring products that alpha replaced.

ordist.groupring keeps an element of Q[G] as one integer numerator per
element of G, in mixed-radix index order, over one denominator, and
builds each level element by coset sums.  Before that it had the whole
ring: sums, products, translations and transfers of such elements, and
the averaged inverse Frobenius p_star, so that a level element was the
product of a trace with the factors 1 - p_star.  The tests keep that
product route here as the reference of the coset sums, of the dense
reference transform and of the distribution compatibility of alpha.
"""

from __future__ import annotations

import math

import numpy as np

from ordist import OrdistError
from ordist.groupring import GroupRingElt, trace
from ordist.zlinalg import _abs_max, _promote


def _same_group(a, b) -> None:
    if a != b:
        raise OrdistError(
            f"group ring elements over {a.invariant_factors} and "
            f"{b.invariant_factors} do not mix")


def basis(group, el) -> GroupRingElt:
    num = np.zeros(group.order, dtype=np.int64)
    num[group.index_of(el)] = 1
    return GroupRingElt(group, num)


def one(group) -> GroupRingElt:
    return basis(group, group.zero())


def add(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    _same_group(x.group, y.group)
    den = math.lcm(x.den, y.den)
    a, b = den // x.den, den // y.den
    # caps the sum and both multipliers
    bound = (_abs_max(x.num) + 1) * a + (_abs_max(y.num) + 1) * b
    return GroupRingElt(x.group, _promote(x.num, bound) * a
                        + _promote(y.num, bound) * b, den)


def neg(x: GroupRingElt) -> GroupRingElt:
    return GroupRingElt(x.group, -x.num, x.den)


def sub(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    return add(x, neg(y))


def mul(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    """One translated copy of the denser factor per nonzero of the
    sparser one: O(#G * nonzeros) work."""
    _same_group(x.group, y.group)
    g = x.group
    a, b = sorted((x, y), key=lambda e: np.count_nonzero(e.num))
    support = np.flatnonzero(a.num)
    weights = [int(w) for w in a.num[support]]
    B = _promote(b.num, sum(map(abs, weights)) * (_abs_max(b.num) + 1))
    coords = g.coordinates()
    out = np.zeros(g.order, dtype=B.dtype)
    for s, w in zip(support.tolist(), weights):
        # coefficient at e of w * (s + b) is w * b[e - s]
        out += w * B[g.indices(coords, -coords[s])]
    return GroupRingElt(g, out, a.den * b.den)


def translate(x: GroupRingElt, sigma) -> GroupRingElt:
    g = x.group
    shift = -np.asarray(sigma, dtype=np.int64)
    return GroupRingElt(g, x.num[g.indices(g.coordinates(), shift)], x.den)


def p_star(G, p) -> GroupRingElt:
    """Averaged inverse Frobenius at p inside Q[G_n]."""
    lam, exact = G.frobenius(p)
    if exact:
        return basis(G.group, G.group.neg(lam))
    T = trace(G.inertia(p))
    return GroupRingElt(G.group, translate(T, G.group.neg(lam)).num,
                        int(T.num.sum()))


def transfer(x: GroupRingElt, hom) -> GroupRingElt:
    """Sum-over-preimages lift of x along a surjection hom; the linear
    map sending each group element to the sum of its hom-fibre."""
    _same_group(x.group, hom.codomain)
    return GroupRingElt(hom.domain, x.num[hom.index_image()], x.den)


def level_element(n, n2, G) -> GroupRingElt:
    """s(ker(G_{n2} -> G_n)) * prod_{p | n} (1 - p_star), by products in
    the group ring."""
    out = trace(G.level_kernel(n))
    for p, _ in n.primes:
        out = mul(out, sub(one(G.group), p_star(G, p)))
    return out
