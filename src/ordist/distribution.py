"""Level subgroups of the universal ordinary distribution.

A level modulus m over an imaginary quadratic field determines a finite
presentation: one generator for each pair (n, sigma) with n | m and
sigma in the ray class group G_n, and one relation for every
symbol-elimination step between a divisor level and a higher one.  This
module builds that presentation, the integral transform that kills all
relations, the torsion of the level quotient (computed two independent
ways), the annihilation and order bounds for that torsion, the parity
functional on three-prime levels, and the explicit certificate element
whose odd parity value exhibits nonzero 2-torsion for suitable prime
triples.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groupring import NotCoprimeToW, alpha, trace_ideal_quotient
from .quadfield import Modulus, OIdeal, QuadField
from .rayclass import (
    FrameUnavailable,
    RayClassGroup,
    Subgroup,
    galois_over_h,
    ray_class_group,
)
from .zlinalg import (
    AbGroup,
    IntMatrix,
    OrdistError,
    _INT64_BOUND,
    _abs_max,
    _is_prime,
    _prime_divisors,
    _promote,
    _snf_local_valuations,
    _val,
    cokernel,
)


class WrongShape(OrdistError):
    pass


class OracleMismatch(OrdistError):
    pass


class HypothesisFailed(OrdistError):
    pass


class DeltaPresentation:
    """Presentation of the level-m subgroup of the ordinary distribution.

    Generators are the pairs (n, sigma) with n | m and sigma in G_n,
    grouped in blocks, one block per divisor in graded order.  For every
    divisor pair u | u p^e | m and every sigma in G_u there is one
    relation row: +1 at (u, sigma), a -1 Frobenius twist at
    (u, sigma - artin(p)) when p does not divide u, and -1 at every
    preimage of sigma at the upper level.  Summing all preimages makes
    the rows independent of any lift choice.
    """

    def __init__(self, K: QuadField, m: Modulus):
        if m.field != K:
            raise OrdistError("modulus belongs to a different field")
        self.field = K
        self.modulus = m
        self.levels: tuple[Modulus, ...] = tuple(m.divisors())
        self.rays = {u.primes: ray_class_group(K, u) for u in self.levels}
        self._offset = {}
        total = 0
        for u in self.levels:
            self._offset[u.primes] = total
            total += self.rays[u.primes].group.order
        self.n_gens = total
        self.relations = self._relation_matrix()
        self._torsion = None
        self._transform = None
        self.transform_scale = None

    @property
    def m(self) -> Modulus:
        return self.modulus

    @cached_property
    def gen_index(self) -> tuple:
        """(u, sigma) of every generator, in column order."""
        return tuple((u, e) for u in self.levels
                     for e in self.rays[u.primes].group.elements())

    @cached_property
    def product_bound(self) -> int:
        """Product over all divisors u | m of the exponent z_u of the
        torsion of Z[G_u]/S(u)."""
        return math.prod(trace_ideal_quotient(self.ray(u))[1]
                         for u in self.levels)

    def ray(self, u: Modulus) -> RayClassGroup:
        return self.rays[u.primes]

    def offset(self, u: Modulus) -> int:
        """First generator index of the block for the divisor u."""
        return self._offset[u.primes]

    def column_of(self, u: Modulus, sigma) -> int:
        return self._offset[u.primes] + self.ray(u).group.index_of(sigma)

    def _relation_matrix(self) -> IntMatrix:
        """One scatter of the +-1 entries.  The block of rows for the
        step u -> t = u p^e runs over sigma in G_u in index order; the
        preimages of sigma are the fibre of Gt.transition(u) over it,
        and the Frobenius twist sigma - artin(p) is one translation of
        the indices of G_u."""
        rows, cols, vals = [], [], []
        n_rows = 0
        for u in self.levels:
            Gu = self.ray(u)
            n_u = Gu.group.order
            sigma = np.arange(n_u)
            for p, e_top in self.modulus.primes:
                vu = u.v_p(p)
                for e in range(1, e_top - vu + 1):
                    t = u.with_exponent(p, vu + e)
                    image = self.ray(t).transition(u).index_image()
                    rows += [n_rows + sigma, n_rows + image]
                    cols += [self.offset(u) + sigma,
                             self.offset(t) + np.arange(len(image))]
                    vals += [np.ones(n_u, dtype=np.int64),
                             np.full(len(image), -1, dtype=np.int64)]
                    if vu == 0:
                        # -1 at sigma - artin(p), which meets the +1
                        # at sigma when artin(p) is trivial in G_u:
                        # hence the entries are added, not assigned
                        twist = Gu.group.indices(Gu.group.coordinates(),
                                                 -np.array(Gu.artin(p),
                                                           dtype=np.int64))
                        rows.append(n_rows + sigma)
                        cols.append(self.offset(u) + twist)
                        vals.append(np.full(n_u, -1, dtype=np.int64))
                    n_rows += n_u
        out = np.zeros((n_rows, self.n_gens), dtype=np.int64)
        if rows:
            np.add.at(out, (np.concatenate(rows), np.concatenate(cols)),
                      np.concatenate(vals))
        return IntMatrix(out)


def build_presentation(K: QuadField, m: Modulus) -> DeltaPresentation:
    return DeltaPresentation(K, m)


def _lifts(G: RayClassGroup, u: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """The transition G_m -> G_u on indices, and the section lift.

    image[g] is the index in G_u of the image of the element of index g
    of G_m; lift[sigma] is the first g over sigma, -1 when none is.
    """
    down = G.transition(u)
    image = down.index_image()
    lift = np.full(down.codomain.order, -1, dtype=np.int64)
    hit, first = np.unique(image, return_index=True)
    lift[hit] = first
    return image, lift


def iwasawa_matrix(P: DeltaPresentation) -> IntMatrix:
    """Integral transform of the presentation, one column per generator.

    The column for (n, sigma) holds the coefficients of lift(sigma)
    times the level element a(n, m) inside Q[G_m]; rows follow the
    enumeration of G_m.  The sum-over-kernel factor of a(n, m) makes the
    column independent of the chosen lift.  Entries are stored times
    P.transform_scale, the least common denominator of the whole matrix;
    kernels, ranks and annihilation checks do not see the scaling.

    Each a(n, m) comes as one numerator vector over the mixed-radix
    indices of G_m with one denominator.  Column (n, sigma) is that
    vector, brought to the common denominator and translated by
    lift(sigma), so block n is one gather on indices, int64 unless a
    numerator does not fit.  The columns of block n therefore span the
    ideal of Q[G_m] generated by a(n, m), which is what lets
    _character_rank count the rank on characters; it re-reads that
    structure off the stored matrix before it counts.
    """
    if P._transform is not None:
        return P._transform
    G = P.ray(P.modulus)
    amb = G.group
    coords = amb.coordinates()
    alphas = [alpha(u, P.modulus, G) for u in P.levels]
    scale = math.lcm(*(au.den for au in alphas))
    nums = [_promote(au.num, (_abs_max(au.num) + 1) * (scale // au.den))
            * (scale // au.den) for au in alphas]
    out = np.zeros((amb.order, P.n_gens),
                   dtype=_promote(np.concatenate(nums)).dtype)
    for u, num in zip(P.levels, nums):
        _, lift = _lifts(G, u)
        # F[g, (u, sigma)] = a_u[g - lift(sigma)]
        out[:, P.offset(u) + np.arange(len(lift))] = \
            num[amb.indices(coords[:, None, :], -coords[lift][None, :, :])]
    P.transform_scale = scale
    P._transform = IntMatrix(out)
    return P._transform


def _annihilation_product(F: IntMatrix, rel: IntMatrix) -> bool:
    """Exact check F . r = 0 for every row r of rel.

    Only the nonzeros of rel are multiplied: the columns of F they pick,
    times their values, summed per relation row.  Rows of F go in
    chunks, so no temporary is larger than F.
    """
    a, r = _abs_max(F.array), _abs_max(rel.array)
    # bounds every entry and every partial sum of the product
    bound = max(a, r, a * r * F.cols)
    i, j = np.nonzero(rel.array)
    if not i.size:
        return True
    A = _promote(F.array, bound)
    vals = _promote(rel.array[i, j], bound)
    # np.nonzero goes row by row, so each relation row is one run of i
    starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
    step = max(1, F.array.size // i.size)
    return not any(
        np.add.reduceat(A[k:k + step, j] * vals, starts, axis=1).any()
        for k in range(0, F.rows, step))


@functools.lru_cache(maxsize=None)
def _character_primes(e: int) -> tuple[int, ...]:
    """The three largest primes p = 1 mod e with e (p - 1)^2 < 2^63.

    F_p then holds the e-th roots of unity, and a DFT axis, whose
    length divides e, sums its products of residues inside int64.
    """
    out = []
    k = math.isqrt((_INT64_BOUND - 1) // e) // e
    while len(out) < 3 and k > 0:
        if _is_prime(k * e + 1):
            out.append(k * e + 1)
        k -= 1
    return tuple(out)


def _root_of_unity(d: int, p: int) -> int:
    """A primitive d-th root of unity mod the prime p, for p = 1 mod d."""
    qs = _prime_divisors(d)
    for g in range(2, p):
        root = pow(g, (p - 1) // d, p)
        if all(pow(root, d // q, p) != 1 for q in qs):
            return root
    raise OrdistError(f"no primitive {d}-th root of unity mod {p}")


def _character_count(heads: np.ndarray, factors: tuple[int, ...],
                     p: int) -> int:
    """Number of characters of the group with these invariant factors
    at which some row of heads, in mixed-radix order, is nonzero mod p.

    Needs p = 1 mod the exponent e and e (p - 1)^2 < 2^63.  The DFT
    runs one invariant-factor axis at a time, as a product with the
    d x d table of powers of a primitive d-th root of unity mod p.
    """
    X = (heads % p).astype(np.int64).reshape(len(heads), *factors)
    for axis, d in enumerate(factors, start=1):
        root = _root_of_unity(d, p)
        powers = np.array([pow(root, t, p) for t in range(d)], dtype=np.int64)
        table = powers[np.multiply.outer(np.arange(d), np.arange(d)) % d]
        X = np.moveaxis(np.moveaxis(X, axis, -1) @ table % p, -1, axis)
    return int(X.reshape(len(heads), -1).any(axis=0).sum())


def _character_rank(P: DeltaPresentation, F: IntMatrix) -> int:
    """Lower bound for the rank of the transform F over Q, counted on
    the characters of G_m; it certifies full row rank when it reaches
    #G_m.

    The structure is read off F itself first: for every divisor u the
    head column a_u = F[:, offset(u)] must be constant on the fibres of
    G_m -> G_u, the lifts must cover G_u, and every column (u, sigma)
    must equal a_u translated by lift(sigma), compared exactly.  Any
    failure raises OracleMismatch.  Then block u spans the ideal
    generated by a_u in the group ring over any field.  Over F_p with
    p = 1 mod the exponent of G_m (so p does not divide #G_m), F_p[G_m]
    splits into the characters of G_m, and the ideal of a_u is the sum
    of the characters chi with chi(a_u) != 0.  So the rank of F mod p is
    the number of characters at which some head is nonzero (Kubert 1979,
    Sinnott 1980), and rank over Q is at least rank mod p.  The count
    runs at up to three primes and the best is returned.
    """
    G = P.ray(P.modulus)
    amb = G.group
    if F.array.shape != (amb.order, P.n_gens):
        raise OracleMismatch(
            f"transform shape {F.array.shape} != "
            f"(#G_m, generators) = {(amb.order, P.n_gens)}")
    coords = amb.coordinates()
    heads = []
    for u in P.levels:
        image, lift = _lifts(G, u)
        if (lift < 0).any():
            raise OracleMismatch(f"lifts do not cover G_u at {u.label()}")
        off = P.offset(u)
        head = F.array[:, off]
        if (head != head[lift[image]]).any():
            raise OracleMismatch(
                f"head column at {u.label()} is not constant on the "
                f"fibres of G_m -> G_u")
        # block[sigma, g] = F[g + lift(sigma), (u, sigma)]
        block = F.array[amb.indices(coords[lift][:, None, :], coords),
                        off + np.arange(len(lift))[:, None]]
        if (block != head).any():
            raise OracleMismatch(
                f"a column at {u.label()} is not its head translated by "
                f"the lift")
        heads.append(head)
    heads = np.stack(heads)
    best = 0
    for p in _character_primes(amb.exponent):
        best = max(best, _character_count(heads, amb.invariant_factors, p))
        if best == amb.order:
            break
    return best


def level_torsion(P: DeltaPresentation) -> AbGroup:
    """Torsion of the level quotient, computed two independent ways.

    Oracle (a) reads the invariant factors of the relation matrix off
    its cokernel, whose free rank must equal #G_m.  The transform
    annihilates every relation row and has full row rank #G_m, which
    _character_rank certifies by counting, mod a prime that splits
    F_p[G_m], the characters at which some level element a(u, m) is
    nonzero, after checking that the stored columns are the translates
    of those elements.  With the rank identity this makes the kernel of
    the transform the saturation of the relation lattice, so the
    torsion is that kernel modulo the relations.  Oracle (b) recomputes
    the torsion p-locally, by Smith elimination over Z/p^k on the raw
    relation matrix, at every prime p dividing S = w * product_bound *
    |T| with T the torsion from (a).  Each pass must find one pivot per
    unit of relation rank, with (a)'s p-valuations and zeros elsewhere.
    Any rank defect, annihilation failure or disagreement raises
    OracleMismatch.  The check is complete on levels whose norm is
    prime to w: there the torsion exponent divides the product bound,
    so every prime that can carry torsion divides S.
    """
    if P._torsion is not None:
        return P._torsion
    quot = cokernel(P.relations, P.n_gens)
    n_top = P.ray(P.modulus).group.order
    if quot.rank != n_top:
        raise OracleMismatch(
            f"presentation rank {quot.rank} != #G_m = {n_top}")
    F = iwasawa_matrix(P)
    if not _annihilation_product(F, P.relations):
        raise OracleMismatch("transform fails to annihilate a relation row")
    if _character_rank(P, F) < F.rows:
        raise OracleMismatch(
            f"no prime certifies full row rank {F.rows} of the transform")
    tor = AbGroup(quot.torsion)
    units = P.n_gens - n_top - len(tor.torsion)
    S = P.field.w_K * P.product_bound * tor.order
    for p in sorted(_prime_divisors(S)):
        got = _snf_local_valuations(P.relations, p, _val(S, p))
        want = [0] * units + sorted(_val(d, p) for d in tor.torsion)
        if got != want:
            raise OracleMismatch(
                f"oracles disagree at p = {p}: (a) gives {len(want)} "
                f"pivots with valuations {[v for v in want if v]}, (b) "
                f"{len(got)} with {[v for v in got if v]}")
    P._torsion = tor
    return tor


def torsion_bound(P: DeltaPresentation) -> tuple[int, int]:
    """(annihilation bound, order bound) for the level torsion.

    The annihilation bound is the product over all divisors u | m of
    the exponent z_u of the torsion of Z[G_u]/S(u); the exponent of the
    level torsion divides it.  The order bound is w^(a h) with
    a = 2^(k-1) - k for k the number of distinct primes of m (a = 0
    when k <= 1, covering torsion-free levels); the order of the level
    torsion divides it.  Both divisibilities are checked against the
    computed torsion; a failure raises OracleMismatch.  The modulus
    norm must be coprime to w.
    """
    m = P.modulus
    K = P.field
    if math.gcd(m.norm(), K.w_K) != 1:
        raise NotCoprimeToW(
            f"modulus norm {m.norm()} shares a factor with w = {K.w_K}")
    product_bound = P.product_bound
    k = m.n_primes
    a = (1 << (k - 1)) - k if k else 0
    borne = K.w_K ** (a * K.h)
    tor = level_torsion(P)
    if product_bound % tor.exponent:
        raise OracleMismatch(
            f"torsion exponent {tor.exponent} does not divide the "
            f"product bound {product_bound}")
    if borne % tor.order:
        raise OracleMismatch(
            f"torsion order {tor.order} does not divide borne {borne}")
    return product_bound, borne


def nu(P: DeltaPresentation, v) -> int:
    """Parity functional: coordinate sum over the full-support levels.

    Defined when m has exactly three distinct primes; a level counts
    exactly when all three divide it.  Every relation row has even
    value, while the certificate element has odd value; together these
    prevent the element from falling into the relation lattice.
    """
    m = P.modulus
    if m.n_primes != 3:
        raise WrongShape("the parity functional needs exactly three primes")
    v = list(v)
    if len(v) != P.n_gens:
        raise WrongShape(
            f"vector has {len(v)} coordinates, presentation has {P.n_gens}")
    total = 0
    for u in P.levels:
        if all(u.v_p(p) >= 1 for p, _ in m.primes):
            off = P.offset(u)
            total += sum(v[off:off + P.ray(u).group.order])
    return total


@dataclass(frozen=True)
class TorsionCertificate:
    """Evidence that the level torsion is nonzero.

    R is the certificate element in generator coordinates; in_kernel
    records that the transform annihilates it exactly; nu_R is the
    parity functional value (odd when the construction goes through);
    nu_parity_of_U is the verdict that the functional is even on every
    relation template, combining the numeric check on all presentation
    rows with the symbolic case analysis over arbitrary levels; the
    conclusion holds when all three parts do.
    """

    R: tuple[int, ...]
    in_kernel: bool
    nu_R: int
    nu_parity_of_U: bool
    conclusion: bool


def torsex_certificate(K: QuadField, p1: OIdeal, p2: OIdeal,
                       p3: OIdeal) -> TorsionCertificate:
    """Build and verify the explicit 2-torsion witness for m = p1 p2 p3.

    Hypotheses: w = 2 and the three primes are distinct, principal,
    with norms congruent to 3 mod 4 (so each inertia group has cyclic
    2-part of order exactly 2).  Writing t_i for the honest order-2
    inertia generators at the reordered primes (the last one is the
    ramification-compensating product of the first two), the identity

        2 s(G') a(m, m) = ((1 + t_1) + (1 + t_2) - t_1 (1 + t_3))
                          s(G') a(m, m)

    holds in the group ring, with G' the odd part of G_m.  Each bracket
    term lives over the level m/q_i and is divisible by 2 there: it is
    zero when the Artin image of q_i lands inside the image Phi_i of
    G', and otherwise equals s(G_{m/q_i}) - 2 lam^-1 s(Phi_i) whenever
    Phi_i has index 2, where the full trace dies under the transform.
    The halves assemble into x_i supported on the m/q_i blocks and
    R = s(G') + x_1 + x_2 + x_3 is annihilated by the transform, while
    nu(R) = #G' is odd.  An index above 2 (even class number) stops the
    halving step and raises HypothesisFailed.
    """
    primes = (p1, p2, p3)
    if K.w_K != 2:
        raise HypothesisFailed(f"w = {K.w_K} is not 2")
    for p in primes:
        if p.field != K:
            raise HypothesisFailed("prime belongs to a different field")
        if not p.is_prime():
            raise HypothesisFailed(f"ideal of norm {p.norm()} is not prime")
        if p.is_principal_generator() is None:
            raise HypothesisFailed(
                f"prime of norm {p.norm()} is not principal")
        if p.norm() % 4 != 3:
            raise HypothesisFailed(
                f"norm {p.norm()} is not 3 mod 4")
    if len({(p.content, p.a, p.b) for p in primes}) != 3:
        raise HypothesisFailed("the three primes must be distinct")
    m = Modulus(K, tuple((p, 1) for p in primes))
    P = build_presentation(K, m)
    G = P.ray(m)
    amb = G.group
    try:
        fr = galois_over_h(G, 2)
    except FrameUnavailable as exc:
        raise HypothesisFailed(f"no inertia frame at 2: {exc}")
    if fr.g != (2, 2, 2):
        raise HypothesisFailed(
            f"inertia 2-parts have orders {fr.g}, expected (2, 2, 2)")
    gens = list(fr.taus[:-1]) + [fr.j]
    if any(amb.element_order(t) != 2 for t in gens):
        raise OracleMismatch("an inertia generator does not have order 2")
    if fr.j != amb.add(fr.taus[0], fr.taus[1]):
        raise OracleMismatch("j is not the product t_1 t_2")
    odd = Subgroup.whole(amb).prime_to(2)
    vec = [0] * P.n_gens
    for s in odd.elements:
        vec[P.column_of(m, s)] += 1
    # one halved bracket term per prime: (prime, generator, sign, twist)
    terms = ((fr.primes[0], gens[0], 1, None),
             (fr.primes[1], gens[1], 1, None),
             (fr.primes[2], gens[2], -1, gens[0]))
    for q, _t, sign, extra in terms:
        u = m.without(q)
        Gu = P.ray(u)
        push = G.transition(u)
        phi = {push.apply(x) for x in odd.elements}
        lam = Gu.artin(q)
        if tuple(lam) in phi:
            continue  # s(Phi)(1 - lam^-1) = 0, the whole term vanishes
        if Gu.group.order != 2 * len(phi):
            raise HypothesisFailed(
                f"odd-part image has index {Gu.group.order // len(phi)} "
                f"at level {u.label()}, halving needs index 2")
        shift = Gu.group.neg(lam)
        if extra is not None:
            shift = Gu.group.add(shift, push.apply(extra))
        for el in phi:
            vec[P.column_of(u, Gu.group.add(el, shift))] += sign
    in_kernel = _annihilation_product(iwasawa_matrix(P),
                                      IntMatrix.from_rows([vec], P.n_gens))
    nu_R = nu(P, vec)
    if nu_R != odd.order:
        raise OracleMismatch(f"nu(R) = {nu_R} != #G' = {odd.order}")
    rows_even = all(nu(P, row) % 2 == 0
                    for row in P.relations.array.tolist())
    norms = [q.norm() for q, _ in m.primes]
    # symbolic half of the parity lemma, instantiated with the concrete
    # numbers: at a full-support level a relation subtracts N(q)^e
    # preimages (odd, since every q dividing such a level is one of the
    # three and has odd norm) from a single marked generator, or
    # N(q)^(e-1) (N(q) - 1) preimages (even) when q completes the
    # support, the unit-image count being 2 on both sides because both
    # norms exceed 2; a twist pair (1 - lam^-1) sits inside one level
    # and cancels; levels whose support is not exactly the triple never
    # meet the functional.
    symbolic = (K.w_K == 2
                and all(n % 2 == 1 for n in norms)
                and all(x * y > 2 for x, y in
                        itertools.combinations(norms, 2)))
    nu_parity = rows_even and symbolic
    conclusion = bool(in_kernel and nu_R % 2 == 1 and nu_parity)
    return TorsionCertificate(tuple(vec), bool(in_kernel), nu_R,
                              nu_parity, conclusion)


def search_torsex(K: QuadField, norm_bound: int):
    """All certificate-admissible prime triples with norms up to a bound.

    Keeps the prime ideals that are principal with norm congruent to
    3 mod 4 (inert primes never qualify: square norms are 0 or 1 mod 4)
    and returns every 3-subset with pairwise distinct residue
    characteristics, in enumeration order.
    """
    if K.w_K != 2:
        raise HypothesisFailed(f"w = {K.w_K} is not 2")
    found = []
    for q in range(2, norm_bound + 1):
        if not _is_prime(q):
            continue
        kind, ids = K.splitting_type(q)
        if kind == "inert":
            continue
        for pid in ids:
            if pid.norm() <= norm_bound and pid.norm() % 4 == 3 \
                    and pid.is_principal_generator() is not None:
                found.append(pid)
    triples = []
    for trio in itertools.combinations(found, 3):
        if len({p.rational_prime() for p in trio}) == 3:
            triples.append(trio)
    return triples
