"""Group rings of finite abelian groups, traces, and inertia-trace ideals.

Elements carry exact rational coefficients on group-element support.
The main constructions:

  * trace(X) = sum of the elements of X with coefficient one;
  * p_star(G, p) = averaged inverse Frobenius at p: the inverse of any
    Frobenius lift times the normalized inertia trace (independent of
    the lift since the trace absorbs inertia translations);
  * alpha(n, n2, G) = trace of ker(G_{n2} -> G_n) times the product of
    (1 - p_star) over primes dividing n; its transfers up the modulus
    tower satisfy the distribution compatibility checked in the tests;
  * trace_ideal_quotient(G) = structure of Z[G_n]/S(n) where S(n) is
    the ideal generated by all inertia traces, with the exponent z_n of
    its torsion subgroup;
  * gal_h_quotient_torsion(G_m, n) = the torsion of the analogous
    quotient taken over Gamma_n = ker(G_n -> G_(1)) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadfield import Modulus, OIdeal
from .rayclass import RayClassGroup, Subgroup, ray_class_group
from .zlinalg import AbGroup, AbHom, OrdistError, cokernel


class NotCoprimeToW(OrdistError):
    pass


def _canon(coeffs) -> tuple:
    return tuple(sorted((el, c) for el, c in coeffs.items() if c))


def _same_group(a: AbGroup, b: AbGroup) -> None:
    if a != b:
        raise OrdistError(
            f"group ring elements over {a.invariant_factors} and "
            f"{b.invariant_factors} do not mix")


@dataclass(frozen=True)
class GroupRingElt:
    """Element of Q[G] with finite support and exact coefficients."""

    group: AbGroup
    coeffs: tuple  # sorted ((element, Fraction), ...) with no zeros

    @staticmethod
    def make(group: AbGroup, coeffs: dict) -> "GroupRingElt":
        clean = {}
        for el, c in coeffs.items():
            c = Fraction(c)
            if c:
                key = group.reduce(el)
                clean[key] = clean.get(key, Fraction(0)) + c
        return GroupRingElt(group, _canon(clean))

    @staticmethod
    def basis(group: AbGroup, el) -> "GroupRingElt":
        return GroupRingElt.make(group, {tuple(el): Fraction(1)})

    @staticmethod
    def one(group: AbGroup) -> "GroupRingElt":
        return GroupRingElt.basis(group, group.zero())

    @staticmethod
    def zero(group: AbGroup) -> "GroupRingElt":
        return GroupRingElt(group, ())

    def coeff(self, el) -> Fraction:
        key = self.group.reduce(el)
        for e, c in self.coeffs:
            if e == key:
                return c
        return Fraction(0)

    @property
    def support(self) -> tuple:
        return tuple(e for e, _ in self.coeffs)

    def augmentation(self) -> Fraction:
        return sum((c for _, c in self.coeffs), Fraction(0))

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        _same_group(self.group, other.group)
        out = dict(self.coeffs)
        for el, c in other.coeffs:
            out[el] = out.get(el, Fraction(0)) + c
        return GroupRingElt(self.group, _canon(out))

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt(self.group,
                            tuple((el, -c) for el, c in self.coeffs))

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def scale(self, k) -> "GroupRingElt":
        k = Fraction(k)
        if not k:
            return GroupRingElt(self.group, ())
        return GroupRingElt(self.group,
                            tuple((el, c * k) for el, c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, GroupRingElt):
            return self.scale(other)
        _same_group(self.group, other.group)
        g = self.group
        out = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                k = g.add(e1, e2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return GroupRingElt(g, _canon(out))

    def __rmul__(self, other):
        return self.scale(other)

    def translate(self, sigma) -> "GroupRingElt":
        g = self.group
        return GroupRingElt(g, _canon(
            {g.add(el, sigma): c for el, c in self.coeffs}))

    def denominator(self) -> int:
        return math.lcm(*(c.denominator for _, c in self.coeffs)) \
            if self.coeffs else 1

    def to_row(self) -> list[Fraction]:
        """Coefficient vector in the enumeration order of the group."""
        n = self.group.order
        if n is None:
            raise OrdistError("infinite group")
        row = [Fraction(0)] * n
        for el, c in self.coeffs:
            row[self.group.index_of(el)] = c
        return row

    def integer_row(self) -> list[int]:
        row = self.to_row()
        if any(c.denominator != 1 for c in row):
            raise OrdistError("element has non-integer coefficients")
        return [int(c) for c in row]


def trace(X, group: AbGroup | None = None) -> GroupRingElt:
    """s(X): the sum of the elements of X with coefficient one."""
    if isinstance(X, Subgroup):
        group = X.ambient
        els = X.elements
    else:
        els = tuple(X)
        if group is None:
            raise OrdistError("trace of a raw element list needs the group")
    return GroupRingElt.make(group, {tuple(e): Fraction(1) for e in els})


def p_star(G: RayClassGroup, p: OIdeal) -> GroupRingElt:
    """Averaged inverse Frobenius at p inside Q[G_n]."""
    lam, exact = G.frobenius(p)
    if exact:
        return GroupRingElt.basis(G.group, G.group.neg(lam))
    T = G.inertia(p)
    elt = trace(T).translate(G.group.neg(lam))
    return elt.scale(Fraction(1, T.order))


def alpha(n: Modulus, n2: Modulus, G: RayClassGroup) -> GroupRingElt:
    """s(ker(G_{n2} -> G_n)) * prod_{p | n} (1 - p_star), inside Q[G_{n2}]."""
    if G.modulus != n2:
        raise OrdistError("group does not present the target modulus")
    out = trace(G.level_kernel(n))
    one = GroupRingElt.one(G.group)
    for p, _ in n.primes:
        out = out * (one - p_star(G, p))
    return out


def transfer(x: GroupRingElt, hom: AbHom) -> GroupRingElt:
    """Sum-over-preimages lift of x along a surjection hom; the linear
    map sending each group element to the sum of its hom-fibre."""
    _same_group(x.group, hom.codomain)
    big = hom.domain
    out = {}
    lookup = dict(x.coeffs)
    for tau in big.elements():
        c = lookup.get(hom.apply(tau))
        if c:
            out[tau] = c
    return GroupRingElt(big, _canon(out))


# ---------------------------------------------------------------------------
# inertia-trace ideals

@dataclass(frozen=True)
class TraceIdeal:
    """The G-stable ideal generated by the inertia traces s(T_p)."""

    group: AbGroup
    generators: tuple[GroupRingElt, ...]
    rows: tuple[tuple[int, ...], ...]


def _coset_rows(group: AbGroup, subgroup_elements) -> tuple:
    """Indicator rows of all cosets of each listed subgroup; these are
    exactly the distinct translates of the subgroup traces."""
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


def trace_ideal(G: RayClassGroup) -> TraceIdeal:
    inertias = [G.inertia(p) for p, _ in G.modulus.primes]
    gens = tuple(trace(T) for T in inertias)
    return TraceIdeal(G.group, gens,
                      _coset_rows(G.group, [T.elements for T in inertias]))


def trace_ideal_quotient(G: RayClassGroup) -> tuple[AbGroup, int]:
    """(structure of Z[G_n]/S(n), exponent z_n of its torsion part)."""
    ideal = trace_ideal(G)
    order = G.group.order
    quot = cokernel(list(ideal.rows), order) if ideal.rows \
        else AbGroup((0,) * order)
    return quot, quot.exponent


def _check_coprime_to_w(n: Modulus) -> None:
    if math.gcd(n.norm(), n.field.w_K) != 1:
        raise NotCoprimeToW(
            f"modulus norm {n.norm()} shares a factor with w = {n.field.w_K}")


def gal_h_quotient(G_m: RayClassGroup, n: Modulus) -> AbGroup:
    """Full structure of Z[Gamma_n]/S~(n), Gamma_n = ker(G_n -> G_(1))
    and S~(n) the ideal of inertia traces taken inside Z[Gamma_n]."""
    _check_coprime_to_w(n)
    if not n.divides(G_m.modulus):
        raise OrdistError("level does not divide the ambient modulus")
    G = ray_class_group(G_m.field, n)
    gamma = G.gamma()
    gab, dlog, _ = gamma.as_group()
    subs = [[dlog[e] for e in G.inertia(p).elements] for p, _ in n.primes]
    if not subs:
        return AbGroup((0,) * gab.order)
    return cokernel(list(_coset_rows(gab, subs)), gab.order)


def gal_h_quotient_torsion(G_m: RayClassGroup, n: Modulus) -> AbGroup:
    """Torsion part of the quotient above; by the parity theorem this
    is trivial for |n| = 1 or |n| even, and Z/w otherwise."""
    return AbGroup(gal_h_quotient(G_m, n).torsion)
