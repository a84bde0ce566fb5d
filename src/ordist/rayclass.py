"""Ray class groups with Artin maps, inertia and Frobenius data.

G_n is presented on the invariant-factor generators of the unit groups
(O_K/p^e)^x of the prime powers of n, together with a greedy set of
small prime ideals generating the class group.  The greedy pick writes
every class through the class primes and gives triangular rows that
generate the kernel of Z^{class primes} -> Cl.  Relations come from
three sources: the unit-group invariant orders, the image of the roots
of unity (the map (O/n)^x -> G_n kills exactly mu_K), and one row per
kernel row, where the corresponding principal product ideal has its
actual generator recovered and its residue discrete-logged.  The
extension 1 -> (O/n)^x / mu -> G_n -> Cl -> 1 is therefore glued from
real principal generators and is never assumed split.

Artin images of coprime ideals are computed by the same mechanism:
divide the ideal by the product of class primes that the pick wrote
for the inverse class, recover the generator of the principal ideal,
and read off its residue; no call makes a Smith pass.  Ray class
groups live for the whole process (ray_class_group), and each keeps its
Artin images, transitions, level kernels, sections and Frobenius lifts
in functools.cache memos of its methods.

The unit part of G_n is assembled by the Chinese remainder theorem,
(O_K/n)^x = prod (O_K/p^e)^x over the prime powers of n, and (O_K/n)^x
is never enumerated for a composite n.  Each (O_K/p^e)^x is found once
for the process (_prime_power_units): its residues are numbered,
multiplication by a unit permutes the unit labels, and, as for the
class group, zlinalg._harvest and _discover run on those permutations.
The unit invariant orders of G_n are the local invariant factors,
concatenated, and the dlog of a residue joins its local dlogs.  Each
local generator r is lifted to 1 + E (r - 1), where E lies in n / p^e
and E = 1 mod p^e, and each lift is checked to log to its unit vector.
Subgroups are masks and carry no structure of their own.

The tau-frame decomposes Gamma = ker(G_m -> G_(1)) into the prime-to-l
part and the l-Sylow G_l, writes G_l as an internal direct product of
the inertia l-Sylows for all primes but the last, and takes as the last
frame element the first complement whose order drops by the l-part of
w_K and whose composite j generates the last inertia l-Sylow.
"""

from __future__ import annotations

import math
from functools import cache

from . import OrdistError, _Frozen
from .quadfield import (
    Modulus,
    OIdeal,
    QuadField,
    _is_prime,
    _residue_reduce,
    _xgcd,
)
from .zlinalg import (
    AbGroup,
    AbHom,
    _discover,
    _grow,
    _harvest,
    _reduced_product,
    _val,
    smith_coordinates,
)


class NotDivisor(OrdistError):
    pass


class NotCoprime(OrdistError):
    pass


class PrimeNotInModulus(OrdistError):
    pass


class FrameUnavailable(OrdistError):
    pass


# ---------------------------------------------------------------------------
# subgroups of a finite abelian group, carried as masks over its indices

class Subgroup(_Frozen):
    """A subgroup as one immutable 0/1 mask (bytes) over the mixed-radix
    indices of the ambient group, 1 on the members.  The constructor
    takes any sequence of truth values, and checks the length and that
    the identity, index 0, is in."""

    _fields = ("ambient", "mask")
    __hash__ = None

    def __init__(self, ambient: AbGroup, mask: bytes):
        mask = bytes(map(bool, mask))
        if len(mask) != ambient.order or not mask[0]:
            raise OrdistError(
                f"a subgroup mask needs {ambient.order} entries, "
                f"with the identity at index 0")
        self.__dict__.update(ambient=ambient, mask=mask)

    @staticmethod
    def generated(ambient: AbGroup, gens) -> "Subgroup":
        span = bytearray(ambient.order)
        span[0] = 1
        for g in gens:
            _grow(span, ambient.translation(g))
        return Subgroup(ambient, span)

    @staticmethod
    def whole(ambient: AbGroup) -> "Subgroup":
        return Subgroup(ambient, b"\x01" * ambient.order)

    def members(self) -> list[int]:
        """The indices of the members, ascending."""
        return [g for g, x in enumerate(self.mask) if x]

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The members as element tuples, in index (= sorted) order."""
        coords = self.ambient.coordinates
        return tuple(coords[g] for g in self.members())

    @property
    def order(self) -> int:
        return self.mask.count(1)

    def scaled(self, k: int) -> "Subgroup":
        """The image of multiplication by k."""
        amb = self.ambient
        mask = bytearray(amb.order)
        for a in self.elements:
            mask[amb.index_of(amb.scale(a, k))] = 1
        return Subgroup(amb, mask)

    def sylow(self, ell: int) -> "Subgroup":
        # multiplication by the prime-to-ell part of the order
        return self.scaled(self.order // ell ** _val(self.order, ell))

    def prime_to(self, ell: int) -> "Subgroup":
        return self.scaled(ell ** _val(self.order, ell))

    def product(self, other: "Subgroup") -> "Subgroup":
        """Grown from self by cosets: each time by the least member of
        other that is not in yet."""
        amb = self.ambient
        span = bytearray(self.mask)
        coords = amb.coordinates
        while True:
            x = next((g for g, (a, b) in enumerate(zip(other.mask, span))
                      if a and not b), None)
            if x is None:
                return Subgroup(amb, span)
            _grow(span, amb.translation(coords[x]))

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.ambient,
                        [a and b for a, b in zip(self.mask, other.mask)])


# ---------------------------------------------------------------------------
# residue unit groups

def residue_units(K: QuadField, n: Modulus):
    """Structure of (O_K/n)^x: (AbGroup, dlog, mu_images).

    dlog maps every coprime canonical residue (x, y) to invariant
    coordinates, in the breadth-first order in which the generators
    reach it; mu_images lists the images of zeta^0 ... zeta^{w_K - 1}.

    The residues x + y*omega, 0 <= x < c a and 0 <= y < c for
    n = c (a Z + beta Z), are numbered y c a + x, and the units are
    labelled in that order: a 0/1 mask over the residues loses the
    non-units of each prime by strided slices.  Multiplication by a unit
    g is x g + y (omega g), which gives a permutation of the unit
    labels.  The greedy harvest and the structure then run on those
    permutations (zlinalg._harvest and zlinalg._discover).
    """
    n.check_norm()
    if n.is_one():
        return AbGroup(()), {(0, 0): ()}, [()] * K.w_K
    nid = n.ideal
    c, ca = nid.content, nid.content * nid.a
    bx = nid.beta()[0]
    # non-unit residues at a prime P over p: x - y*beta_P = 0 mod p for
    # split/ramified P, p | x and p | y for inert P
    unit = bytearray(b"\x01") * (c * ca)
    for p, _ in n.primes:
        q, b = p.rational_prime(), p.beta()[0]
        for y in range(0, c, 1 if p.content == 1 else q):
            start = y * ca + (y * b % q if p.content == 1 else 0)
            stop = (y + 1) * ca
            unit[start:stop:q] = bytes(len(range(start, stop, q)))
    units = [i for i, x in enumerate(unit) if x]
    order = n.phi()
    if len(units) != order:
        raise OrdistError(f"found {len(units)} residue units, phi(n) = {order}")
    label = [-1] * (c * ca)
    for k, i in enumerate(units):
        label[i] = k
    uy, ux = zip(*(divmod(i, ca) for i in units))

    def label_of(u) -> int:
        rx, ry = _residue_reduce(nid, u)
        return label[ry * ca + rx]

    def perm_of(g: int) -> list[int]:
        """Multiplication by the unit of label g, on unit labels."""
        u = (ux[g], uy[g])
        # x u + y (omega u), reduced
        (gx, gy), (hx, hy) = (_residue_reduce(nid, v)
                              for v in (u, K.elt_mul((0, 1), u)))
        Y = [x * gy + y * hy for x, y in zip(ux, uy)]
        out = [label[v % c * ca + (x * gx + y * hx - (v - v % c) * bx) % ca]
               for x, y, v in zip(ux, uy, Y)]
        if -1 in out:
            raise OrdistError("a product of residue units is not a unit")
        return out

    ident = label_of((1, 0))
    perms = _harvest(order, perm_of, ident)
    group, bfs, coords = _discover(order, perms, ident)
    dlog = {(ux[i], uy[i]): coords[i] for i in bfs}
    mu, z = [], (1, 0)
    for _ in range(K.w_K):
        mu.append(coords[label_of(z)])
        z = K.elt_mul(z, K.zeta())
    return group, dlog, mu


@cache
def _prime_power_units(K: QuadField, p: OIdeal, e: int):
    """(p^e, invariant factors, dlog, mu_images, generators) of
    (O_K/p^e)^x, kept for the whole process: residue_units of the prime
    power, and its generators, the residues at the unit vectors."""
    n = Modulus(K, ((p, e),))
    group, dlog, mu = residue_units(K, n)
    t = len(group.invariant_factors)
    slot = {tuple(int(i == j) for j in range(t)): i for i in range(t)}
    gens = [None] * t
    for r, co in dlog.items():
        if co in slot:
            gens[slot[co]] = r
    return n.ideal, group.invariant_factors, dlog, mu, gens


def _crt_idempotents(n: Modulus, powers) -> list:
    """E_j in n / P_j with E_j = 1 mod P_j, as omega coordinates, for
    each prime power P_j = p_j^e_j of n (powers, in the order of n.primes).

    An ideal contains its norm.  With M the norm of the prime powers of
    n over the rational prime q under p_j, and N that of the others, the
    extended gcd gives u M + v N = 1, and v N lies in every prime power
    over another prime and is 1 mod P_j.  When q splits and both of its
    primes divide n, E_j also takes the factor y beta_Q, for the other
    prime power Q = q^f Z + beta_Q Z over q: it lies in Q, and it is
    1 mod P_j = q^e_j Z + beta_j Z when y (beta_Q - beta_j) = 1 mod
    q^e_j, which a second extended gcd solves.
    """
    qs = [p.rational_prime() for p, _ in n.primes]
    norms = [P.norm() for P in powers]
    out = []
    for j, (q, P) in enumerate(zip(qs, powers)):
        far = math.prod(N for r, N in zip(qs, norms) if r != q)
        near = math.prod(N for r, N in zip(qs, norms) if r == q)
        E = (_xgcd(near, far)[2] * far, 0)
        for k, Q in enumerate(powers):
            if k != j and qs[k] == q:
                bq = Q.beta()[0]
                y = _xgcd(bq - P.beta()[0], norms[j])[1]
                E = n.field.elt_mul(E, (y * bq, y))
        out.append(E)
    return out


# ---------------------------------------------------------------------------
# the ray class group

class RayClassGroup:
    """G_n presented on unit-group and class-prime generators."""

    def __init__(self, K: QuadField, n: Modulus):
        if n.field != K:
            raise OrdistError("modulus belongs to a different field")
        n.check_norm()
        self.field = K
        self.modulus = n
        self._units = [_prime_power_units(K, p, e) for p, e in n.primes]
        self._unit_orders = tuple(d for _, orders, _, _, _ in self._units
                                  for d in orders)
        self.mu_images = [sum((mu[k] for _, _, _, mu, _ in self._units), ())
                          for k in range(K.w_K)]
        self.class_primes, self._words, kernel = self._pick_class_primes()
        t = len(self._unit_orders)
        s = len(self.class_primes)
        self._t, self._s = t, s
        self.group, self._to, self._back = smith_coordinates(
            self._relation_rows(kernel), t + s)
        if not self.group.is_finite:
            raise OrdistError("ray class presentation is not finite")
        expected = (K.h if n.is_one()
                    else K.h * n.phi() // len(set(self.mu_images)))
        if self.group.order != expected:
            raise OrdistError(
                f"order {self.group.order} != exact-sequence value {expected}")
        self._unit_reps = self._lift_unit_generators()

    # -- presentation plumbing --

    def _pick_class_primes(self):
        """(primes, words, kernel) for the class part of G_n.

        The primes are taken in increasing order, split or ramified and
        coprime to n, and one is kept when its class c lies outside the
        span H of the classes kept before it.  The span grows by whole
        cosets, H, c + H, 2c + H, ..., until e c lies in H, and words
        maps each class of the span to one exponent vector x >= 0 over
        the kept primes, with x_j < e_j, that writes it.  Kernel row j is
        e_j at q_j plus the word of -e_j c: the rows are triangular with
        diagonal e_j, whose product is h, so they generate the kernel of
        Z^{class primes} -> Cl.
        """
        K = self.field
        cl = K.class_group
        words = {cl.zero(): ()}
        primes, kernel = [], []
        p = 1
        while len(words) < cl.order:
            p += 1
            while not _is_prime(p):
                p += 1
            kind, ids = K.splitting_type(p)
            if kind == "inert":
                continue
            for P in ids:
                if not P.is_coprime(self.modulus.ideal):
                    continue
                c = K.ideal_class(P)
                if c in words:
                    continue
                grown = {h: x + (0,) for h, x in words.items()}
                e, ec = 1, c
                while ec not in words:
                    grown.update((cl.add(h, ec), x + (e,))
                                 for h, x in words.items())
                    e, ec = e + 1, cl.add(ec, c)
                kernel.append(words[cl.neg(ec)] + (e,))
                primes.append(P)
                words = grown
                if len(words) == cl.order:
                    break
        s = len(primes)
        return (tuple(primes), words,
                [row + (0,) * (s - len(row)) for row in kernel])

    def _class_product(self, exps) -> OIdeal:
        """prod q_j^exps over the class primes (exps >= 0)."""
        I = self.field.unit_ideal()
        for q, e in zip(self.class_primes, exps):
            I = I.multiply(q.pow(e))
        return I

    def _principal_word(self, exps):
        """dlog of the residue of a generator of prod q_j^exps (exps >= 0,
        the product must be principal)."""
        g = self._class_product(exps).is_principal_generator()
        if g is None:
            raise OrdistError("a class-prime kernel product is not principal")
        return self._residue_word(g)

    def _residue_word(self, half_coords):
        """Unit-group dlog of an element given in (x + y sqrt D)/2 form."""
        K = self.field
        x, y = half_coords
        v = K.disc & 1
        if (x - v * y) % 2:
            raise OrdistError("generator is not in half-integral form")
        u = ((x - v * y) // 2, y)
        return self._unit_dlog_of(u)

    def _unit_dlog_of(self, u):
        """The local dlogs of u mod each prime power of n, joined."""
        word = ()
        for P, _, dlog, _, _ in self._units:
            w = dlog.get(_residue_reduce(P, u))
            if w is None:
                raise NotCoprime("element is not a unit modulo n")
            word += w
        return word

    def _lift_unit_generators(self):
        """The residues mod n of 1 + E (r - 1), for each local generator
        r of each prime power, with E its CRT idempotent: each must log
        to its unit vector."""
        K, n = self.field, self.modulus
        powers = [P for P, _, _, _, _ in self._units]
        reps = []
        for E, (_, _, _, _, gens) in zip(_crt_idempotents(n, powers),
                                         self._units):
            for x, y in gens:
                ex, ey = K.elt_mul(E, (x - 1, y))
                reps.append(_residue_reduce(n.ideal, (1 + ex, ey)))
        t = self._t
        if [self._unit_dlog_of(r) for r in reps] != \
                [tuple(int(i == j) for j in range(t)) for i in range(t)]:
            raise OrdistError(
                "a lifted unit generator does not log to its unit vector")
        return reps

    def _relation_rows(self, kernel):
        t, s = self._t, self._s
        rows = []
        for i, d in enumerate(self._unit_orders):
            rows.append([d if j == i else 0 for j in range(t + s)])
        if self.field.w_K > 1 and len(self.mu_images) > 1:
            z = self.mu_images[1]
            if any(z):
                rows.append(list(z) + [0] * s)
        # one row per kernel row of Z^s -> Cl, through its principal
        # product
        for v in kernel:
            w = self._principal_word(v)
            rows.append([-x for x in w] + list(v))
        return rows

    # -- coordinates --

    def word_to_coords(self, word) -> tuple[int, ...]:
        return _reduced_product([word], self._to,
                                self.group.invariant_factors)[0]

    # -- the Artin map --

    @cache
    def artin(self, a: OIdeal) -> tuple[int, ...]:
        K = self.field
        if a.field != K:
            raise OrdistError("ideal from a different field")
        if not a.is_coprime(self.modulus.ideal):
            raise NotCoprime(f"{a} is not coprime to the modulus")
        c = K.ideal_class(a)
        x, z = self._words[c], self._words[K.class_group.neg(c)]
        # a*B and J*B are principal for J = prod q^x, B = prod q^z
        g = a.multiply(self._class_product(z)).is_principal_generator()
        if g is None:
            raise OrdistError("a * B is not principal")
        w1 = self._residue_word(g)
        w2 = self._principal_word([e1 + e2 for e1, e2 in zip(x, z)])
        word = [u - v for u, v in zip(w1, w2)] + list(x)
        return self.word_to_coords(word)

    # -- transitions, inertia, Frobenius --

    @cache
    def transition(self, n2: Modulus) -> AbHom:
        if not n2.divides(self.modulus):
            raise NotDivisor("target modulus does not divide the source")
        target = ray_class_group(self.field, n2)
        imgs = []
        for rep in self._unit_reps:
            w = list(target._unit_dlog_of(rep)) + [0] * target._s
            imgs.append(target.word_to_coords(w))
        for q in self.class_primes:
            imgs.append(target.artin(q))
        hom = AbHom(self.group, target.group, _reduced_product(
            self._back, imgs, target.group.invariant_factors))
        if len(set(hom.index_image)) != target.group.order:
            raise OrdistError("transition must be onto")
        return hom

    @cache
    def level_kernel(self, u: Modulus) -> Subgroup:
        """ker(G_n -> G_u) for a divisor modulus u."""
        hom = self.transition(u)
        sub = Subgroup(self.group, [g == 0 for g in hom.index_image])
        if sub.order * hom.codomain.order != self.group.order:
            raise OrdistError("level kernel order does not match the index")
        return sub

    @cache
    def section(self, u: Modulus) -> tuple[int, ...]:
        """The first element over each element of G_u: entry sigma is the
        least index of G_n that the transition to u sends to sigma, or -1
        when none is."""
        hom = self.transition(u)
        first = {}
        for g, s in enumerate(hom.index_image):
            first.setdefault(s, g)
        return tuple(first.get(s, -1) for s in range(hom.codomain.order))

    def inertia(self, p: OIdeal) -> Subgroup:
        if self.modulus.v_p(p) == 0:
            raise PrimeNotInModulus(f"{p} does not divide the modulus")
        return self.level_kernel(self.modulus.without(p))

    @cache
    def frobenius(self, p: OIdeal) -> tuple[tuple[int, ...], bool]:
        """(representative, exact): exact Artin image for p coprime to n,
        else a lift of the Frobenius of G_{n/p^v}, well defined mod T_p:
        the first element over it."""
        if self.modulus.v_p(p) == 0:
            return self.artin(p), True
        n2 = self.modulus.without(p)
        hom = self.transition(n2)
        lam = ray_class_group(self.field, n2).artin(p)
        g = self.section(n2)[hom.codomain.index_of(lam)]
        if g < 0:
            raise OrdistError("the Frobenius has no preimage under transition")
        lift = self.group.coordinates[g]
        if hom.apply(lift) != lam:
            raise OrdistError("the Frobenius lift maps to the wrong class")
        return lift, False

    def gamma(self) -> Subgroup:
        """ker(G_m -> G_(1)) as a subgroup."""
        return self.level_kernel(Modulus.one(self.field))


@cache
def ray_class_group(K: QuadField, n: Modulus) -> RayClassGroup:
    return RayClassGroup(K, n)


# ---------------------------------------------------------------------------
# the tau-frame over the Hilbert class field

class GaloisOverH(_Frozen):
    _fields = ("ray", "ell", "r", "primes", "gamma", "g_prime", "g_ell",
               "inertia_ell", "g", "taus", "j")

    def __init__(self, ray: RayClassGroup, ell: int, r: int,
                 primes: tuple[OIdeal, ...], gamma: Subgroup,
                 g_prime: Subgroup, g_ell: Subgroup,
                 inertia_ell: tuple[Subgroup, ...], g: tuple[int, ...],
                 taus: tuple[tuple[int, ...], ...], j: tuple[int, ...]):
        self.__dict__.update(
            ray=ray, ell=ell, r=r, primes=primes, gamma=gamma,
            g_prime=g_prime, g_ell=g_ell, inertia_ell=inertia_ell, g=g,
            taus=taus, j=j)


def galois_over_h(G_m: RayClassGroup, ell: int) -> GaloisOverH:
    if not _is_prime(ell):
        raise OrdistError(f"{ell} is not prime")
    K = G_m.field
    gamma = G_m.gamma()
    g_ell = gamma.sylow(ell)
    g_prime = gamma.prime_to(ell)
    r = _val(K.w_K, ell)
    mod_primes = [p for p, _ in G_m.modulus.primes]
    syls = {}
    gs = {}
    for p in mod_primes:
        t = G_m.inertia(p).sylow(ell)
        syls[p] = t
        gs[p] = t.order
    # put one prime of minimal l-inertia order last (latest such index)
    order = list(mod_primes)
    gmin = min(gs[p] for p in order) if order else 1
    last = max(i for i, p in enumerate(order) if gs[p] == gmin) if order else None
    if order:
        order.append(order.pop(last))
    m = len(order)
    taus = []
    amb = G_m.group
    span = Subgroup.generated(amb, [])
    for p in order[:-1] if m else []:
        # an l-group is cyclic exactly when a member has its order
        tau = next((x for x in syls[p].elements
                    if amb.element_order(x) == gs[p]), None)
        if tau is None:
            raise FrameUnavailable(f"inertia l-Sylow at {p} is not cyclic")
        taus.append(tau)
        new = span.product(Subgroup.generated(amb, [tau]))
        if new.order != span.order * gs[p]:
            raise FrameUnavailable(
                "inertia l-Sylows are not independent below the last prime")
        span = new
    if m:
        p_last = order[-1]
        g_last = gs[p_last]
        if r and g_last % ell ** r:
            raise FrameUnavailable(
                f"l^r = {ell ** r} does not divide g_m = {g_last}")
        q = g_last // ell ** r
        # j = the sum of tau_i^(g_i / g_m); the last term is tau_m itself
        head = amb.zero()
        for tau, p in zip(taus, order):
            head = amb.add(head, amb.scale(tau, gs[p] // g_last))
        for x in g_ell.elements:
            if amb.element_order(x) != q:
                continue
            cyc = Subgroup.generated(amb, [x])
            if cyc.intersection(span).order != 1 or \
                    span.product(cyc).order != g_ell.order:
                continue
            j = amb.add(head, x)
            # with at least two primes the ramification-compensating
            # element recovers the full inertia l-Sylow at the last prime
            if m >= 2 and (amb.element_order(j) != g_last or
                           Subgroup.generated(amb, [j]) != syls[p_last]):
                continue
            taus.append(x)
            break
        else:
            raise FrameUnavailable("no complement generator for the last prime")
    else:
        j = amb.zero()
    return GaloisOverH(
        ray=G_m, ell=ell, r=r, primes=tuple(order), gamma=gamma,
        g_prime=g_prime, g_ell=g_ell,
        inertia_ell=tuple(syls[p] for p in order),
        g=tuple(gs[p] for p in order), taus=tuple(taus), j=j)
