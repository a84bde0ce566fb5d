"""Group rings of finite abelian groups, traces, and inertia-trace ideals.

An element of Q[G] is one integer numerator per element of G, in the
mixed-radix index order of AbGroup.index_of, over one positive common
denominator.  Every operation is an index map on that vector: a trace
counts indices, a translation is a permutation of them, a transfer
reads the numerators through the index image of a homomorphism, and a
product adds translated copies of one factor, one per nonzero of the
other.  A kernel of a transition G_n -> G_u is read off the index image
of the transition: its trace marks the indices sent to 0, and its
cosets are the fibres.  The main constructions:

  * trace(X) = sum of the elements of X with coefficient one;
  * p_star(G, p) = averaged inverse Frobenius at p: the inverse of any
    Frobenius lift times the normalized inertia trace (independent of
    the lift since the trace absorbs inertia translations);
  * alpha(n, n2, G) = trace of ker(G_{n2} -> G_n) times the product of
    (1 - p_star) over primes dividing n; its transfers up the modulus
    tower satisfy the distribution compatibility checked in the tests;
  * trace_ideal_quotient(G) = structure of Z[G_n]/S(n) where S(n) is
    the ideal generated by all inertia traces, with the exponent z_n of
    its torsion subgroup, computed once per group and kept with it;
  * gal_h_quotient_torsion(G_m, n) = the torsion of the analogous
    quotient taken over Gamma_n = ker(G_n -> G_(1)) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadfield import Modulus, OIdeal
from .rayclass import RayClassGroup, Subgroup, ray_class_group
from .zlinalg import (
    AbGroup,
    AbHom,
    IntMatrix,
    OrdistError,
    _abs_max,
    _promote,
    cokernel,
)


class NotCoprimeToW(OrdistError):
    pass


def _same_group(a: AbGroup, b: AbGroup) -> None:
    if a != b:
        raise OrdistError(
            f"group ring elements over {a.invariant_factors} and "
            f"{b.invariant_factors} do not mix")


def _indices(group: AbGroup, elements) -> np.ndarray:
    """Mixed-radix indices of a sequence of element tuples."""
    k = len(group.invariant_factors)
    return group.indices(
        np.array(elements, dtype=np.int64).reshape(len(elements), k))


@dataclass(frozen=True, eq=False)
class GroupRingElt:
    """The element num / den of Q[G], G finite.

    num is one integer numerator per element of G in index order, int64
    or, past 2^63, an object array of Python ints; den is positive.  The
    constructor reduces the pair to lowest terms and freezes num, so
    equal elements have equal arrays and denominators.
    """

    group: AbGroup
    num: np.ndarray
    den: int = 1

    def __post_init__(self):
        num = self.num
        if not isinstance(num, np.ndarray):
            num = np.array(num, dtype=object)
        if num.shape != (self.group.order,) or num.dtype.kind not in "iO":
            raise OrdistError(
                f"numerators of shape {num.shape} and dtype {num.dtype} "
                f"do not fit a group of order {self.group.order}")
        den = int(self.den)
        if den < 1:
            raise OrdistError(f"denominator {den} is not positive")
        g = math.gcd(den, int(np.gcd.reduce(num)))
        if g > 1 and num.any():  # a zero num has g = den and stays
            num = num // g
        num = _promote(num)
        num.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den // g)

    @staticmethod
    def basis(group: AbGroup, el) -> "GroupRingElt":
        num = np.zeros(group.order, dtype=np.int64)
        num[group.index_of(el)] = 1
        return GroupRingElt(group, num)

    @staticmethod
    def one(group: AbGroup) -> "GroupRingElt":
        return GroupRingElt.basis(group, group.zero())

    def __eq__(self, other):
        if not isinstance(other, GroupRingElt):
            return NotImplemented
        return self.group == other.group and self.den == other.den \
            and np.array_equal(self.num, other.num)

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        _same_group(self.group, other.group)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        # caps the sum and both multipliers
        bound = (_abs_max(self.num) + 1) * a + (_abs_max(other.num) + 1) * b
        return GroupRingElt(self.group, _promote(self.num, bound) * a
                            + _promote(other.num, bound) * b, den)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt(self.group, -self.num, self.den)

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def __mul__(self, other: "GroupRingElt") -> "GroupRingElt":
        """One translated copy of the denser factor per nonzero of the
        sparser one: O(#G * nonzeros) work."""
        _same_group(self.group, other.group)
        g = self.group
        a, b = sorted((self, other), key=lambda x: np.count_nonzero(x.num))
        support = np.flatnonzero(a.num)
        weights = [int(x) for x in a.num[support]]
        B = _promote(b.num,
                     sum(map(abs, weights)) * (_abs_max(b.num) + 1))
        coords = g.coordinates()
        out = np.zeros(g.order, dtype=B.dtype)
        for s, w in zip(support.tolist(), weights):
            # coefficient at x of w * (s + b) is w * b[x - s]
            out += w * B[g.indices(coords, -coords[s])]
        return GroupRingElt(g, out, a.den * b.den)

    def translate(self, sigma) -> "GroupRingElt":
        g = self.group
        shift = -np.asarray(sigma, dtype=np.int64)
        return GroupRingElt(g, self.num[g.indices(g.coordinates(), shift)],
                            self.den)


def trace(X, group: AbGroup | None = None) -> GroupRingElt:
    """s(X): the sum of the elements of X with coefficient one."""
    if isinstance(X, Subgroup):
        group, X = X.ambient, X.elements
    elif group is None:
        raise OrdistError("trace of a raw element list needs the group")
    return GroupRingElt(group, np.bincount(_indices(group, tuple(X)),
                                           minlength=group.order))


def _kernel_trace(G: RayClassGroup, u: Modulus) -> GroupRingElt:
    """s(ker(G_n -> G_u)): the indices that the transition sends to 0."""
    return GroupRingElt(G.group, (G.transition(u).index_image() == 0)
                        .astype(np.int64))


def p_star(G: RayClassGroup, p: OIdeal) -> GroupRingElt:
    """Averaged inverse Frobenius at p inside Q[G_n]."""
    lam, exact = G.frobenius(p)
    if exact:
        return GroupRingElt.basis(G.group, G.group.neg(lam))
    T = _kernel_trace(G, G.modulus.without(p))  # the inertia group at p
    return GroupRingElt(G.group, T.translate(G.group.neg(lam)).num,
                        int(T.num.sum()))


def alpha(n: Modulus, n2: Modulus, G: RayClassGroup) -> GroupRingElt:
    """s(ker(G_{n2} -> G_n)) * prod_{p | n} (1 - p_star), inside Q[G_{n2}]."""
    if G.modulus != n2:
        raise OrdistError("group does not present the target modulus")
    out = _kernel_trace(G, n)
    one = GroupRingElt.one(G.group)
    for p, _ in n.primes:
        out = out * (one - p_star(G, p))
    return out


def transfer(x: GroupRingElt, hom: AbHom) -> GroupRingElt:
    """Sum-over-preimages lift of x along a surjection hom; the linear
    map sending each group element to the sum of its hom-fibre."""
    _same_group(x.group, hom.codomain)
    return GroupRingElt(hom.domain, x.num[hom.index_image()], x.den)


# ---------------------------------------------------------------------------
# inertia-trace ideals

@dataclass(frozen=True)
class TraceIdeal:
    """The G-stable ideal generated by the inertia traces s(T_p)."""

    group: AbGroup
    generators: tuple[GroupRingElt, ...]
    rows: IntMatrix


def _coset_rows(order: int, labels) -> IntMatrix:
    """Indicator rows of all cosets of each listed subgroup of a group
    of this order; these are exactly the distinct translates of the
    subgroup traces.

    Each subgroup comes as one coset-label array over the indices of
    the group: two indices carry the same label exactly when they lie
    in one coset, so the subgroup is the coset of index 0.  Equal
    subgroups give their cosets once.

    The rows come sorted as tuples.  The unit pre-reduction of cokernel
    picks its pivots in row order: on Gamma for d = 3, m = 7.13.19.31
    this order clears every pivot, while the order of the coset labels
    leaves a 75 x 4451 residual for the Smith elimination.
    """
    blocks, seen = [], set()
    for lab in labels:
        sub = np.flatnonzero(lab == lab[0])
        key = sub.tobytes()
        if key in seen:
            continue  # an equal subgroup has the same cosets
        seen.add(key)
        # one coset per row, its members ascending
        blocks.append(np.argsort(lab, kind="stable").reshape(-1, len(sub)))
    if not blocks:
        return IntMatrix.zeros(0, order)
    width = max(b.shape[1] for b in blocks)
    # of two rows, the smaller tuple has the larger member where their
    # ascending member lists first differ, or is a prefix of the other:
    # sort on the negated members, padded with -order past the end
    keys = np.full((sum(len(b) for b in blocks), width), -order,
                   dtype=np.int64)
    starts = np.cumsum([0] + [len(b) for b in blocks])
    for b, r in zip(blocks, starts):
        keys[r:r + len(b), :b.shape[1]] = -b
    where = np.empty(len(keys), dtype=np.int64)
    where[np.lexsort(keys.T[::-1])] = np.arange(len(keys))
    rows = np.zeros((len(keys), order), dtype=np.int64)
    for b, r in zip(blocks, starts):
        rows[where[r:r + len(b), None], b] = 1
    return IntMatrix(rows)


def _fibres(G: RayClassGroup, p: OIdeal) -> np.ndarray:
    """Coset labels of the inertia group at p: its cosets are the
    fibres of the transition G_n -> G_{n/p^v}."""
    return G.transition(G.modulus.without(p)).index_image()


def trace_ideal(G: RayClassGroup) -> TraceIdeal:
    labels = [_fibres(G, p) for p, _ in G.modulus.primes]
    gens = tuple(GroupRingElt(G.group, (lab == 0).astype(np.int64))
                 for lab in labels)
    return TraceIdeal(G.group, gens, _coset_rows(G.group.order, labels))


def trace_ideal_quotient(G: RayClassGroup) -> tuple[AbGroup, int]:
    """(structure of Z[G_n]/S(n), exponent z_n of its torsion part),
    computed once per group and kept with it."""
    if G._trace_quotient is None:
        quot = cokernel(trace_ideal(G).rows, G.group.order)
        G._trace_quotient = (quot, quot.exponent)
    return G._trace_quotient


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
    gab, dlog, _ = G.gamma().as_group()
    # an element of Gamma_n: its index in G_n, and in gab
    inside = _indices(G.group, list(dlog))
    own = _indices(gab, list(dlog.values()))
    labels = []
    for p, _ in n.primes:
        lab = np.empty(gab.order, dtype=np.int64)
        lab[own] = _fibres(G, p)[inside]
        labels.append(lab)
    return cokernel(_coset_rows(gab.order, labels), gab.order)


def gal_h_quotient_torsion(G_m: RayClassGroup, n: Modulus) -> AbGroup:
    """Torsion part of the quotient above; by the parity theorem this
    is trivial for |n| = 1 or |n| even, and Z/w otherwise."""
    return AbGroup(gal_h_quotient(G_m, n).torsion)
