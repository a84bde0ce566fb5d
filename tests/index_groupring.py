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

from ordist import OrdistError
from ordist.groupring import GroupRingElt, trace


def _same_group(a, b) -> None:
    if a != b:
        raise OrdistError(
            f"group ring elements over {a.invariant_factors} and "
            f"{b.invariant_factors} do not mix")


def basis(group, el) -> GroupRingElt:
    num = [0] * group.order
    num[group.index_of(el)] = 1
    return GroupRingElt(group, num)


def one(group) -> GroupRingElt:
    return basis(group, group.zero())


def add(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    _same_group(x.group, y.group)
    den = math.lcm(x.den, y.den)
    a, b = den // x.den, den // y.den
    return GroupRingElt(x.group, [s * a + t * b
                                  for s, t in zip(x.num, y.num)], den)


def neg(x: GroupRingElt) -> GroupRingElt:
    return GroupRingElt(x.group, [-s for s in x.num], x.den)


def sub(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    return add(x, neg(y))


def mul(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    """One translated copy of the denser factor per nonzero of the
    sparser one: O(#G * nonzeros) work."""
    _same_group(x.group, y.group)
    g = x.group
    a, b = sorted((x, y), key=lambda e: sum(map(bool, e.num)))
    coords = g.coordinates()
    out = [0] * g.order
    for s, w in enumerate(a.num):
        if w:
            # coefficient at e of w * (s + b) is w * b[e - s]
            at = g.translation(g.neg(coords[s]))
            out = [o + w * b.num[t] for o, t in zip(out, at)]
    return GroupRingElt(g, out, a.den * b.den)


def translate(x: GroupRingElt, sigma) -> GroupRingElt:
    g = x.group
    return GroupRingElt(g, [x.num[t] for t in g.translation(g.neg(sigma))],
                        x.den)


def p_star(G, p) -> GroupRingElt:
    """Averaged inverse Frobenius at p inside Q[G_n]."""
    lam, exact = G.frobenius(p)
    if exact:
        return basis(G.group, G.group.neg(lam))
    T = trace(G.inertia(p))
    return GroupRingElt(G.group, translate(T, G.group.neg(lam)).num,
                        sum(T.num))


def transfer(x: GroupRingElt, hom) -> GroupRingElt:
    """Sum-over-preimages lift of x along a surjection hom; the linear
    map sending each group element to the sum of its hom-fibre."""
    _same_group(x.group, hom.codomain)
    return GroupRingElt(hom.domain, [x.num[t] for t in hom.index_image()],
                        x.den)


def level_element(n, n2, G) -> GroupRingElt:
    """s(ker(G_{n2} -> G_n)) * prod_{p | n} (1 - p_star), by products in
    the group ring."""
    out = trace(G.level_kernel(n))
    for p, _ in n.primes:
        out = mul(out, sub(one(G.group), p_star(G, p)))
    return out
