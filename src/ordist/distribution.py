"""Level subgroups of the universal ordinary distribution.

A level modulus m over an imaginary quadratic field determines a finite
presentation: one generator for each pair (n, sigma) with n | m and
sigma in the ray class group G_n, and one relation for every
symbol-elimination step between a divisor level and a higher one.  This
module builds that presentation, the level elements that define the
integral transform killing all relations (the transform itself is never
built), the torsion of the level quotient (computed two independent
ways), the annihilation and order bounds for that torsion, the parity
functional on three-prime levels, and the explicit certificate element
whose odd parity value exhibits nonzero 2-torsion for suitable prime
triples.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import cached_property
from operator import mul

from . import OrdistError, _Frozen
from .groupring import _check_coprime_to_w, alpha, trace_ideal_quotient
from .quadfield import HypothesisFailed, Modulus, OIdeal, QuadField, \
    _is_prime
from .rayclass import (
    FrameUnavailable,
    RayClassGroup,
    Subgroup,
    galois_over_h,
    ray_class_group,
)
from .zlinalg import (
    AbGroup,
    CSRMatrix,
    IntMatrix,
    _local_valuations,
    _prime_divisors,
    _val,
    cokernel,
)


class WrongShape(OrdistError):
    pass


class OracleMismatch(OrdistError):
    exit_code = 3
    prefix = "oracle mismatch: "


class DeltaPresentation:
    """Presentation of the level-m subgroup of the ordinary distribution.

    Generators are the pairs (n, sigma) with n | m and sigma in G_n,
    grouped in blocks, one block per divisor in graded order.  For every
    divisor pair u | u p^e | m and every sigma in G_u there is one
    relation row: +1 at (u, sigma), a -1 Frobenius twist at
    (u, sigma - artin(p)) when p does not divide u, and -1 at every
    preimage of sigma at the upper level.  Summing all preimages makes
    the rows independent of any lift choice.  The relations are one
    sparse CSRMatrix; no dense array of them is built.

    The transform F that kills the relations is never stored either: its
    column (u, sigma) is the level element a(u, m) translated by a lift
    of sigma to G_m, so the rows of heads, the a(u, m) over one common
    denominator transform_scale, determine it.
    """

    def __init__(self, K: QuadField, m: Modulus):
        if m.field != K:
            raise OrdistError("modulus belongs to a different field")
        self.field = K
        self.modulus = m
        m.check_norm()  # before the walk: a huge exponent has many divisors
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

    @cached_property
    def product_bound(self) -> int:
        """Product over all divisors u | m of the exponent z_u of the
        torsion of Z[G_u]/S(u)."""
        return math.prod(trace_ideal_quotient(self.ray(u))[1]
                         for u in self.levels)

    @cached_property
    def _scaled_heads(self) -> tuple[int, IntMatrix]:
        G = self.ray(self.modulus)
        alphas = [alpha(u, self.modulus, G) for u in self.levels]
        scale = math.lcm(*(au.den for au in alphas))
        return scale, IntMatrix([[x * (scale // au.den) for x in au.num]
                                 for au in alphas], G.group.order)

    @property
    def heads(self) -> IntMatrix:
        """One row per divisor u in level order: a(u, m) times
        transform_scale, over the mixed-radix indices of G_m."""
        return self._scaled_heads[1]

    @property
    def transform_scale(self) -> int:
        """The least common denominator of the a(u, m)."""
        return self._scaled_heads[0]

    def ray(self, u: Modulus) -> RayClassGroup:
        return self.rays[u.primes]

    def offset(self, u: Modulus) -> int:
        """First generator index of the block for the divisor u."""
        return self._offset[u.primes]

    def _steps(self):
        """(u, p, t, first row) of every divisor step u -> t = u p^e, in
        the row order of the relation matrix; a step has #G_u rows."""
        first = 0
        for u in self.levels:
            for p, e_top in self.modulus.primes:
                vu = u.v_p(p)
                for e in range(1, e_top - vu + 1):
                    yield u, p, u.with_exponent(p, vu + e), first
                    first += self.ray(u).group.order

    def _relation_matrix(self) -> CSRMatrix:
        """One scatter of the +-1 entries.  The block of rows for the
        step u -> t = u p^e runs over sigma in G_u in index order; the
        preimages of sigma are the fibre of Gt.transition(u) over it,
        and the Frobenius twist sigma - artin(p) is one translation of
        the indices of G_u."""
        rows, cols, vals = [], [], []
        n_rows = 0
        for u, p, t, first in self._steps():
            Gu = self.ray(u)
            n_u = Gu.group.order
            ou, ot = self.offset(u), self.offset(t)
            image = self.ray(t).transition(u).index_image()
            rows += [first + s for s in range(n_u)]
            cols += range(ou, ou + n_u)
            vals += [1] * n_u
            rows += [first + s for s in image]
            cols += range(ot, ot + len(image))
            vals += [-1] * len(image)
            if u.v_p(p) == 0:
                # -1 at sigma - artin(p), which meets the +1 at sigma
                # when artin(p) is trivial in G_u: hence the entries
                # are added, not assigned
                twist = Gu.group.translation(Gu.group.neg(Gu.artin(p)))
                rows += range(first, first + n_u)
                cols += [ou + s for s in twist]
                vals += [-1] * n_u
            n_rows = first + n_u
        return CSRMatrix.from_triplets(n_rows, self.n_gens, rows, cols, vals)


def build_presentation(K: QuadField, m: Modulus) -> DeltaPresentation:
    return DeltaPresentation(K, m)


def _lifts(G: RayClassGroup, u: Modulus) -> tuple[tuple[int, ...], list[int]]:
    """The transition G_m -> G_u on indices, and the section lift.

    image[g] is the index in G_u of the image of the element of index g
    of G_m; lift[sigma] is the first g over sigma, -1 when none is.
    """
    down = G.transition(u)
    image = down.index_image()
    lift = [-1] * down.codomain.order
    for g in range(len(image) - 1, -1, -1):  # the first g writes last
        lift[image[g]] = g
    return image, lift


def _transform_times(P: DeltaPresentation, heads: IntMatrix, cols,
                     vals) -> list[int]:
    """F v in Z[G_m], exactly, for the vector v with entries vals at the
    generator indices cols; column (u, sigma) of the transform F is
    head u translated by lift(sigma), so F v sums translated heads."""
    G = P.ray(P.modulus)
    amb = G.group
    coords = amb.coordinates()
    out = [0] * amb.order
    for head, u in zip(heads.entries, P.levels):
        off = P.offset(u)
        here = [(c - off, v) for c, v in zip(cols, vals)
                if off <= c < off + P.ray(u).group.order]
        if here:
            _, lift = _lifts(G, u)
            for sigma, v in here:
                # F[g, (u, sigma)] = h_u[g - lift(sigma)]
                at = amb.translation(amb.neg(coords[lift[sigma]]))
                out = [o + v * head[a] for o, a in zip(out, at)]
    return out


def _check_annihilation(P: DeltaPresentation, heads: IntMatrix,
                        rel: CSRMatrix) -> None:
    """Raise OracleMismatch unless the transform kills every row of
    rel, the relation matrix of P; the transform is not built.  The
    heads must have passed the checks of _character_rank, so h_u is a
    function on G_u.

    Per divisor step u -> t = u p^e: the transitions G_m -> G_t -> G_u
    must compose to G_m -> G_u, and the row at sigma must carry the
    entries of the row at 0 in block u shifted by sigma, -1 on the
    fibre of G_t -> G_u over sigma in block t, and nothing else.  Then
    F times the row at sigma is F times the row at 0 translated by
    lift(sigma), and F times the row at 0 is, at g, I at the image of g
    in G_u, where
        I(s) = sum_j v_j h_u(s - c_j) - (sum of h_t over the fibre over s)
    for the entries v_j at (u, c_j) of the row at 0: +1 at 0, and the
    -1 of the Frobenius twist at -artin(p) when p does not divide u.
    I must vanish; it takes one pass over G_t and one over G_u per
    entry in block u.
    """
    G = P.ray(P.modulus)
    steps = list(P._steps())
    n_rows = sum(P.ray(u).group.order for u, _, _, _ in steps)
    if (rel.rows, rel.cols) != (n_rows, P.n_gens):
        raise OracleMismatch(
            f"relation matrix shape {(rel.rows, rel.cols)} != "
            f"{(n_rows, P.n_gens)}")
    level = {}  # per divisor: G_m -> G_u on indices, h_u on G_u
    for u, head in zip(P.levels, heads.entries):
        image, lift = _lifts(G, u)
        level[u.primes] = image, [head[g] for g in lift]
    ptr, idx, val = rel.indptr, rel.indices, rel.data
    for u, _, t, first in steps:
        Gu = P.ray(u).group
        ou, ot = P.offset(u), P.offset(t)
        image_u, hu = level[u.primes]
        image_t, ht = level[t.primes]
        down = P.ray(t).transition(u).index_image()  # G_t -> G_u
        if any(down[s] != g for s, g in zip(image_t, image_u)):
            raise OracleMismatch(
                f"the transitions to {t.label()} and on to {u.label()} "
                f"do not compose to the transition to {u.label()}")
        starts = ptr[first:first + Gu.order + 1]
        if len({e - s for s, e in zip(starts, starts[1:])}) > 1:
            raise OracleMismatch(
                f"relation rows of step {u.label()} -> {t.label()} differ "
                f"in their entry counts")
        s0 = starts[0]
        in_u = [(c - ou, v) for c, v in zip(idx[s0:starts[1]],
                                            val[s0:starts[1]])
                if ou <= c < ou + Gu.order]
        # shifts[j][sigma]: the index of c_j + sigma
        shifts = [Gu.translation(Gu.coordinates()[c]) for c, _ in in_u]
        fibres = [[] for _ in range(Gu.order)]
        for k, s in enumerate(down):
            fibres[s].append((ot + k, -1))
        for sigma, (s, e) in enumerate(zip(starts, starts[1:])):
            want = sorted([(ou + sh[sigma], v)
                           for sh, (_, v) in zip(shifts, in_u)]
                          + fibres[sigma])
            if want != list(zip(idx[s:e], val[s:e])):
                raise OracleMismatch(
                    f"relation row {first + sigma} of step "
                    f"{u.label()} -> {t.label()} is off its template")
        identity = [0] * Gu.order
        for s, h in zip(down, ht):
            identity[s] -= h
        # h_u(s - c_j) at s = sigma + c_j
        for sh, (_, v) in zip(shifts, in_u):
            for s, h in zip(sh, hu):
                identity[s] += h * v
        if any(identity):
            raise OracleMismatch(
                f"transform fails to annihilate the relations of step "
                f"{u.label()} -> {t.label()}")


@functools.lru_cache(maxsize=None)
def _character_primes(e: int) -> tuple[int, ...]:
    """The three largest primes p = 1 mod e below 2^30.

    F_p then holds the e-th roots of unity, and residues mod p stay
    single-digit Python ints.
    """
    out = []
    k = ((1 << 30) - 2) // e
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


def _character_count(heads, factors: tuple[int, ...], p: int) -> int:
    """Number of characters of the group with these invariant factors
    at which some row of heads, in mixed-radix order, is nonzero mod p.

    Needs p = 1 mod the exponent.  Each invariant-factor axis of length
    d is first split into its prime-power parts by the CRT re-indexing
    t -> (t mod q^a)_q; the characters of the parts are those of the
    axis.  The DFT then runs one part at a time: every line of the flat
    rows along that part's axis, a strided slice, is multiplied with the
    q^a x q^a table of powers of a primitive q^a-th root of unity mod p.

    Several rows are first combined into one: where the combination is
    nonzero some row is, so when it is nonzero at every character that
    is the count, and otherwise the rows are counted one by one.
    """
    n = math.prod(factors)
    if len(heads) > 1:
        weights = range(1, len(heads) + 1)
        mix = [sum(map(mul, weights, col)) % p for col in zip(*heads)]
        if _character_count([mix], factors, p) == n:
            return n
    parts, gather = [], [0]
    for d, r in zip(factors, AbGroup(factors).radix()):
        qas = [q ** _val(d, q) for q in sorted(_prime_divisors(d))]
        # t, laid out on the grid of its residues mod the parts
        t = [0]
        for qa in qas:
            unit = d // qa * pow(d // qa, -1, qa)  # 1 mod qa, 0 mod d / qa
            t = [(x + k * unit) % d for x in t for k in range(qa)]
        gather = [g + x * r for g in gather for x in t]
        parts += qas
    X = [row[g] % p for row in heads for g in gather]
    stride = n
    for d in parts:
        stride //= d
        root = _root_of_unity(d, p)
        table = [[pow(root, j * k % d, p) for k in range(d)]
                 for j in range(d)]
        span = d * stride
        for b in range(0, len(X), span):
            for i in range(b, b + stride):
                line = X[i:i + span:stride]
                X[i:i + span:stride] = [sum(map(mul, w, line)) % p
                                        for w in table]
    return sum(map(any, zip(*(X[i:i + n] for i in range(0, len(X), n)))))


def _character_rank(P: DeltaPresentation, heads: IntMatrix) -> int:
    """Lower bound for the rank over Q of the transform F whose column
    (u, sigma) is head u translated by lift(sigma); it certifies full
    row rank when it reaches #G_m.

    The structure of the heads is checked first: for every divisor u
    the head h_u must be constant on the fibres of G_m -> G_u, and the
    lifts must cover G_u.  Any failure raises OracleMismatch.  Then
    block u of F spans the ideal generated by h_u in the group ring
    over any field.  Over F_p with p = 1 mod the exponent of G_m (so p
    does not divide #G_m), F_p[G_m] splits into the characters of G_m,
    and the ideal of h_u is the sum of the characters chi with
    chi(h_u) != 0.  So the rank of F mod p is the number of characters
    at which some head is nonzero (Kubert 1979, Sinnott 1980), and rank
    over Q is at least rank mod p.  The count runs at up to three
    primes and the best is returned.
    """
    G = P.ray(P.modulus)
    amb = G.group
    if (heads.rows, heads.cols) != (len(P.levels), amb.order):
        raise OracleMismatch(
            f"heads shape {(heads.rows, heads.cols)} != "
            f"(divisors, #G_m) = {(len(P.levels), amb.order)}")
    for u, head in zip(P.levels, heads.entries):
        image, lift = _lifts(G, u)
        if -1 in lift:
            raise OracleMismatch(f"lifts do not cover G_u at {u.label()}")
        if any(h != head[lift[s]] for h, s in zip(head, image)):
            raise OracleMismatch(
                f"head at {u.label()} is not constant on the fibres of "
                f"G_m -> G_u")
    best = 0
    for p in _character_primes(amb.exponent):
        best = max(best, _character_count(heads.entries,
                                          amb.invariant_factors, p))
        if best == amb.order:
            break
    return best


def level_torsion(P: DeltaPresentation) -> AbGroup:
    """Torsion of the level quotient, computed two independent ways.

    Oracle (a) reads the invariant factors of the relation matrix off
    its cokernel, whose free rank must equal #G_m.  The transform F,
    whose column (u, sigma) is the level element a(u, m) translated by
    lift(sigma), annihilates every relation row and has full row rank
    #G_m; both are certified on the heads a(u, m) alone, and F is never
    built.  _character_rank counts, mod a prime that splits F_p[G_m],
    the characters at which some a(u, m) is nonzero, after checking
    that each a(u, m) is constant on the fibres of G_m -> G_u.
    _check_annihilation checks that the relation rows of each divisor
    step are translates of its row at 0, and that F kills that row: one
    coset-sum identity per step, with no transform and no product.  With the rank identity
    this makes the kernel of F the saturation of the relation lattice,
    so the torsion is that kernel modulo the relations.  Oracle (b)
    recomputes the torsion p-locally, by its own elimination over Z/p^k
    on the sparse relation rows, at every prime p dividing
    S = w * product_bound * |T| with T the torsion from (a).  Each pass
    must find one pivot per unit of relation rank, with (a)'s
    p-valuations and zeros elsewhere.  Any rank defect, annihilation
    failure or disagreement raises OracleMismatch.  The check is
    complete on levels whose norm is prime to w: there the torsion
    exponent divides the product bound, so every prime that can carry
    torsion divides S.
    """
    if P._torsion is not None:
        return P._torsion
    quot = cokernel(P.relations, P.n_gens)
    n_top = P.ray(P.modulus).group.order
    if quot.rank != n_top:
        raise OracleMismatch(
            f"presentation rank {quot.rank} != #G_m = {n_top}")
    heads = P.heads
    if _character_rank(P, heads) < n_top:
        raise OracleMismatch(
            f"no prime certifies full row rank {n_top} of the transform")
    _check_annihilation(P, heads, P.relations)
    tor = AbGroup(quot.torsion)
    units = P.n_gens - n_top - len(tor.torsion)
    S = P.field.w_K * P.product_bound * tor.order
    for p in sorted(_prime_divisors(S)):
        got = _local_valuations(P.relations, p, _val(S, p) + 2)
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
    _check_coprime_to_w(m)
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
    return sum(x for x, f in zip(v, _full_support(P)) if f)


def _full_support(P: DeltaPresentation) -> list[int]:
    """0/1 per generator: 1 on the blocks of the levels that every
    prime of m divides."""
    out = [0] * P.n_gens
    for u in P.levels:
        if all(u.v_p(p) >= 1 for p, _ in P.modulus.primes):
            out[P.offset(u):P.offset(u) + P.ray(u).group.order] = \
                [1] * P.ray(u).group.order
    return out


class TorsionCertificate(_Frozen):
    """Evidence that the level torsion is nonzero.

    R is the certificate element in generator coordinates; in_kernel
    records that the transform annihilates it exactly, as a sum of
    translated level elements in Z[G_m]; nu_R is the
    parity functional value (odd when the construction goes through);
    nu_parity_of_U is the verdict that the functional is even on every
    relation template, combining the numeric check on all presentation
    rows with the symbolic case analysis over arbitrary levels; the
    conclusion holds when all three parts do.
    """

    _fields = ("R", "in_kernel", "nu_R", "nu_parity_of_U", "conclusion")

    def __init__(self, R: tuple[int, ...], in_kernel: bool, nu_R: int,
                 nu_parity_of_U: bool, conclusion: bool):
        self.__dict__.update(R=R, in_kernel=in_kernel, nu_R=nu_R,
                             nu_parity_of_U=nu_parity_of_U,
                             conclusion=conclusion)


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

    in_kernel sums the nonzero coefficients of R times the translated
    level elements a(u, m), in Z[G_m]; the parity of nu on the relation
    rows is one sparse product with the full-support indicator.
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
    for g in odd.members():
        vec[P.offset(m) + g] = 1
    # one halved bracket term per prime: (prime, generator, sign, twist)
    terms = ((fr.primes[0], gens[0], 1, None),
             (fr.primes[1], gens[1], 1, None),
             (fr.primes[2], gens[2], -1, gens[0]))
    for q, _t, sign, extra in terms:
        u = m.without(q)
        Gu = P.ray(u)
        push = G.transition(u)
        image = push.index_image()
        phi = sorted({image[g] for g in odd.members()})  # the image of G'
        n_phi = len(phi)
        lam = Gu.artin(q)
        if Gu.group.index_of(lam) in phi:
            continue  # s(Phi)(1 - lam^-1) = 0, the whole term vanishes
        if Gu.group.order != 2 * n_phi:
            raise HypothesisFailed(
                f"odd-part image has index {Gu.group.order // n_phi} "
                f"at level {u.label()}, halving needs index 2")
        shift = Gu.group.neg(lam)
        if extra is not None:
            shift = Gu.group.add(shift, push.apply(extra))
        moved = Gu.group.translation(shift)
        for s in phi:
            vec[P.offset(u) + moved[s]] += sign
    support = [i for i, x in enumerate(vec) if x]
    in_kernel = not any(_transform_times(P, P.heads, support,
                                         [vec[i] for i in support]))
    nu_R = nu(P, vec)
    if nu_R != odd.order:
        raise OracleMismatch(f"nu(R) = {nu_R} != #G' = {odd.order}")
    # nu of every relation row at once
    rows_even = not any(x % 2 for x in P.relations.dot(_full_support(P)))
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
