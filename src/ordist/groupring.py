"""Group rings of finite abelian groups, traces, and inertia-trace ideals.

An element of Q[G] is one integer numerator per element of G, in the
mixed-radix index order of AbGroup.index_of, over one positive common
denominator.  The level elements are built by index maps on that
vector, with no ring product: a trace counts indices, and each factor
(1 - p*) of a level element is one coset sum over an inertia group.  A
subgroup is a 0/1 mask over the indices (rayclass.Subgroup), so its
trace is that mask as a numerator vector.  A kernel of a transition
G_n -> G_u is the set of indices the transition sends to 0, and its
cosets are the fibres of the transition.  The main constructions:

  * trace(X) = sum of the elements of X with coefficient one;
  * alpha(n, n2, G) = trace of ker(G_{n2} -> G_n) times the product of
    (1 - p*) over primes dividing n, where p* is the averaged inverse
    Frobenius at p: the inverse of any Frobenius lift times the
    normalized inertia trace (independent of the lift, since the trace
    absorbs inertia translations);
  * trace_ideal_quotient(G) = structure of Z[G_n]/S(n) where S(n) is
    the ideal generated by all inertia traces, with the exponent z_n of
    its torsion subgroup, computed once per group (functools.cache);
  * gal_h_quotient_torsion(G_m, n) = the torsion of the analogous
    quotient taken over Gamma_n = ker(G_n -> G_(1)) only.
"""

from __future__ import annotations

import math
from functools import cache
from operator import index

from . import OrdistError, _Frozen
from .quadfield import Modulus, OIdeal
from .rayclass import RayClassGroup, Subgroup, ray_class_group
from .zlinalg import AbGroup, CSRMatrix, cokernel


class NotCoprimeToW(OrdistError):
    exit_code = 2
    prefix = "hypothesis failure: "


class GroupRingElt(_Frozen):
    """The element num / den of Q[G], G finite.

    num is one integer numerator per element of G in index order, a
    tuple of Python ints; den is positive.  The constructor reduces the
    pair to lowest terms, so equal elements have equal numerators and
    denominators.
    """

    _fields = ("group", "den", "num")
    __hash__ = None

    def __init__(self, group: AbGroup, num: tuple[int, ...], den: int = 1):
        try:
            num = tuple(map(index, num))
        except TypeError:
            raise OrdistError("numerators must be integers") from None
        if len(num) != group.order:
            raise OrdistError(
                f"{len(num)} numerators do not fit a group of order "
                f"{group.order}")
        den = index(den)
        if den < 1:
            raise OrdistError(f"denominator {den} is not positive")
        # over den = 1 there is nothing to reduce
        g = math.gcd(den, *num) if den > 1 else 1
        if g > 1 and any(num):  # a zero num has g = den and stays
            num = tuple(x // g for x in num)
        self.__dict__.update(group=group, num=num, den=den // g)


def trace(X, group: AbGroup | None = None) -> GroupRingElt:
    """s(X): the sum of the elements of X with coefficient one.  X is a
    Subgroup, whose mask is the numerator, or a sequence of element
    tuples of group."""
    if isinstance(X, Subgroup):
        return GroupRingElt(X.ambient, X.mask)
    if group is None:
        raise OrdistError("trace of a raw element list needs the group")
    num = [0] * group.order
    for g in group.indices(X):
        num[g] += 1
    return GroupRingElt(group, num)


def alpha(n: Modulus, n2: Modulus, G: RayClassGroup) -> GroupRingElt:
    """s(ker(G_{n2} -> G_n)) * prod_{p | n} (1 - p*), inside Q[G_{n2}].

    Each factor is one coset sum, with no ring product: for x in Q[G],
    x (1 - p*) = x - s(T_p) x lam^-1 / #T_p, where lam is the
    Frobenius lift at p and s(T_p) x takes, at g, the sum of x over the
    coset g + T_p, one fibre of _fibres(G, p).
    """
    if G.modulus != n2:
        raise OrdistError("group does not present the target modulus")
    amb = G.group
    num, den = trace(G.level_kernel(n)).num, 1
    for p, _ in n.primes:
        lam, _ = G.frobenius(p)
        fibre = _fibres(G, p)
        t = G.inertia(p).order
        sums = [0] * (amb.order // t)
        for f, x in zip(fibre, num):
            sums[f] += x
        # (s(T_p) x lam^-1)[g] = (s(T_p) x)[g + lam]
        num = [x * t - sums[fibre[g]]
               for x, g in zip(num, amb.translation(lam))]
        den *= t
    return GroupRingElt(amb, num, den)


# ---------------------------------------------------------------------------
# inertia-trace ideals

def _coset_rows(order: int, labels) -> CSRMatrix:
    """Indicator rows of all cosets of each listed subgroup of a group
    of this order; these are exactly the distinct translates of the
    subgroup traces.

    Each subgroup comes as one coset-label sequence over the indices of
    the group: two indices carry the same label exactly when they lie
    in one coset, so the subgroup is the coset of index 0.  Equal
    subgroups give their cosets once.  The rows come as a CSRMatrix,
    sorted as tuples, an order that does not depend on the label
    values.
    """
    cosets, seen = [], set()
    for lab in labels:
        sub = tuple(g for g, x in enumerate(lab) if x == lab[0])
        if sub in seen:
            continue  # an equal subgroup has the same cosets
        seen.add(sub)
        # one coset per row, its members ascending
        block = {}
        for g, x in enumerate(lab):
            block.setdefault(x, []).append(g)
        cosets += block.values()
    # of two rows, the smaller tuple has the larger member where their
    # ascending member lists first differ, or is a prefix of the other:
    # sort on the negated members
    cosets.sort(key=lambda c: [-g for g in c])
    ptr = [0]
    for c in cosets:
        ptr.append(ptr[-1] + len(c))
    return CSRMatrix(ptr, [g for c in cosets for g in c],
                     [1] * ptr[-1], order)


def _fibres(G: RayClassGroup, p: OIdeal) -> tuple[int, ...]:
    """Coset labels of the inertia group at p: its cosets are the
    fibres of the transition G_n -> G_{n/p^v}."""
    return G.transition(G.modulus.without(p)).index_image


def trace_ideal(G: RayClassGroup) -> CSRMatrix:
    """The coset rows spanning S(n), the ideal of Z[G_n] generated by
    the inertia traces s(T_p), one row per coset of each T_p."""
    return _coset_rows(G.group.order,
                       [_fibres(G, p) for p, _ in G.modulus.primes])


@cache
def trace_ideal_quotient(G: RayClassGroup) -> tuple[AbGroup, int]:
    """(structure of Z[G_n]/S(n), exponent z_n of its torsion part),
    computed once per group."""
    quot = cokernel(trace_ideal(G), G.group.order)
    return quot, quot.exponent


def _check_coprime_to_w(n: Modulus) -> None:
    if math.gcd(n.norm(), n.field.w_K) != 1:
        raise NotCoprimeToW(
            f"modulus norm {n.norm()} shares a factor with w = {n.field.w_K}")


def _gamma_labels(G: RayClassGroup) -> tuple[int, list[list[int]]]:
    """The order of Gamma_n = ker(G_n -> G_(1)) and, per prime of n,
    the coset labels of its inertia group inside Gamma_n, over the
    indices of Gamma_n's own group."""
    gab, inside, coords, _ = G.gamma().as_group
    own = gab.indices(coords)  # the indices in gab of the members
    labels = []
    for p, _ in G.modulus.primes:
        fibre = _fibres(G, p)
        lab = [0] * gab.order
        for o, g in zip(own, inside):
            lab[o] = fibre[g]
        labels.append(lab)
    return gab.order, labels


def gal_h_quotient(G_m: RayClassGroup, n: Modulus) -> AbGroup:
    """Full structure of Z[Gamma_n]/S~(n), Gamma_n = ker(G_n -> G_(1))
    and S~(n) the ideal of inertia traces taken inside Z[Gamma_n]."""
    _check_coprime_to_w(n)
    if not n.divides(G_m.modulus):
        raise OrdistError("level does not divide the ambient modulus")
    order, labels = _gamma_labels(ray_class_group(G_m.field, n))
    return cokernel(_coset_rows(order, labels), order)


def gal_h_quotient_torsion(G_m: RayClassGroup, n: Modulus) -> AbGroup:
    """Torsion part of the quotient above; by the parity theorem this
    is trivial for |n| = 1 or |n| even, and Z/w otherwise."""
    return AbGroup(gal_h_quotient(G_m, n).torsion)
