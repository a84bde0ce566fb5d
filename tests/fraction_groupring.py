"""Reference group ring: elements as sorted (element tuple, Fraction)
pairs, multiplied by a double loop over AbGroup.add.

This is the layout that ordist.groupring used before it moved onto
integer numerator vectors over mixed-radix indices.  The tests keep it
as the independent reference for the differential test of that module
and for the transform tests.  to_num_den turns an element into the
(numerator list in index order, denominator) pair that the new layout
stores, so the two can be compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ordist.rayclass import Subgroup
from ordist.zlinalg import OrdistError


def _canon(coeffs) -> tuple:
    return tuple(sorted((el, c) for el, c in coeffs.items() if c))


@dataclass(frozen=True)
class GroupRingElt:
    group: object
    coeffs: tuple  # sorted ((element, Fraction), ...) with no zeros

    @staticmethod
    def make(group, coeffs: dict) -> "GroupRingElt":
        clean = {}
        for el, c in coeffs.items():
            c = Fraction(c)
            if c:
                key = group.reduce(el)
                clean[key] = clean.get(key, Fraction(0)) + c
        return GroupRingElt(group, _canon(clean))

    @staticmethod
    def one(group) -> "GroupRingElt":
        return GroupRingElt.make(group, {group.zero(): Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for el, c in other.coeffs:
            out[el] = out.get(el, Fraction(0)) + c
        return GroupRingElt(self.group, _canon(out))

    def __neg__(self):
        return GroupRingElt(self.group,
                            tuple((el, -c) for el, c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        k = Fraction(k)
        return GroupRingElt(self.group, _canon(
            {el: c * k for el, c in self.coeffs}))

    def __mul__(self, other):
        g = self.group
        out = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                k = g.add(e1, e2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return GroupRingElt(g, _canon(out))

    def translate(self, sigma):
        g = self.group
        return GroupRingElt(g, _canon(
            {g.add(el, sigma): c for el, c in self.coeffs}))


def to_num_den(x: GroupRingElt) -> tuple[list[int], int]:
    """(numerators in index order, least common denominator)."""
    den = math.lcm(*(c.denominator for _, c in x.coeffs)) \
        if x.coeffs else 1
    num = [0] * x.group.order
    for el, c in x.coeffs:
        num[x.group.index_of(el)] = int(c * den)
    return num, den


def trace(X, group=None) -> GroupRingElt:
    if isinstance(X, Subgroup):
        group, els = X.ambient, X.elements
    else:
        els = tuple(X)
    return GroupRingElt.make(group, {tuple(e): Fraction(1) for e in els})


def p_star(G, p) -> GroupRingElt:
    lam, exact = G.frobenius(p)
    if exact:
        return GroupRingElt.make(G.group, {G.group.neg(lam): 1})
    T = G.inertia(p)
    return trace(T).translate(G.group.neg(lam)).scale(Fraction(1, T.order))


def alpha(n, n2, G) -> GroupRingElt:
    if G.modulus != n2:
        raise OrdistError("group does not present the target modulus")
    out = trace(G.level_kernel(n))
    one = GroupRingElt.one(G.group)
    for p, _ in n.primes:
        out = out * (one - p_star(G, p))
    return out


def transfer(x: GroupRingElt, hom) -> GroupRingElt:
    out = {}
    lookup = dict(x.coeffs)
    for tau in hom.domain.elements():
        c = lookup.get(hom.apply(tau))
        if c:
            out[tau] = c
    return GroupRingElt(hom.domain, _canon(out))


def coset_rows(group, subgroup_elements) -> tuple:
    """Indicator rows of all cosets of each listed subgroup, sorted."""
    n = group.order
    rows = set()
    for els in subgroup_elements:
        seen = set()
        for sigma in group.elements():
            if sigma in seen:
                continue
            coset = [group.add(sigma, t) for t in els]
            seen.update(coset)
            row = [0] * n
            for e in coset:
                row[group.index_of(e)] = 1
            rows.add(tuple(row))
    return tuple(sorted(rows))
