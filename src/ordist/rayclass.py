"""Ray class groups with Artin maps, inertia and Frobenius data.

G_n is presented on the invariant-factor generators of (O_K/n)^x
together with a greedy set of small prime ideals generating the class
group.  Relations come from three sources: the unit-group invariant
orders, the image of the roots of unity (the map (O/n)^x -> G_n kills
exactly mu_K), and one row per generator of the kernel of
Z^{class primes} -> Cl, where the corresponding principal product ideal
has its actual generator recovered and its residue discrete-logged.
The extension 1 -> (O/n)^x / mu -> G_n -> Cl -> 1 is therefore glued
from real principal generators and is never assumed split.

Artin images of coprime ideals are computed by the same mechanism:
divide the ideal by a product of class primes to reach a principal
ideal, recover the generator, and read off its residue.  Ray class
groups live for the whole process (ray_class_group), and each keeps its
Artin images, transitions, level kernels, sections and Frobenius lifts
in functools.cache memos of its methods.

The unit groups (O_K/n)^x are found on indices: the residues are
numbered, multiplication by a unit permutes the unit labels, and, as
for the class group, zlinalg._harvest and _discover run on those
permutations.  Subgroups are masks and carry no structure of their own.

The tau-frame decomposes Gamma = ker(G_m -> G_(1)) into the prime-to-l
part and the l-Sylow G_l, writes G_l as an internal direct product of
the inertia l-Sylows for all primes but the last, and solves for a last
frame element whose order drops by the l-part of w_K.
"""

from __future__ import annotations

from functools import cache

from . import OrdistError, _Frozen
from .quadfield import (
    Modulus,
    OIdeal,
    QuadField,
    _is_prime,
    _residue_reduce,
)
from .zlinalg import (
    AbGroup,
    AbHom,
    IntMatrix,
    _discover,
    _grow,
    _harvest,
    _reduced_product,
    _val,
    rational_kernel,
    smith_coordinates,
    solve_left,
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

    def contains(self, x) -> bool:
        return bool(self.mask[self.ambient.index_of(x)])

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


# ---------------------------------------------------------------------------
# the ray class group

class RayClassGroup:
    """G_n presented on unit-group and class-prime generators."""

    def __init__(self, K: QuadField, n: Modulus):
        if n.field != K:
            raise OrdistError("modulus belongs to a different field")
        self.field = K
        self.modulus = n
        self.unit_group, self.unit_dlog, self.mu_images = residue_units(K, n)
        self.class_primes = self._pick_class_primes()
        t = len(self.unit_group.invariant_factors)
        s = len(self.class_primes)
        self._t, self._s = t, s
        self._class_orders, self._class_stack = self._class_setup()
        self.group, self._to, self._back = smith_coordinates(
            self._relation_rows(), t + s)
        if not self.group.is_finite:
            raise OrdistError("ray class presentation is not finite")
        expected = (K.h if n.is_one()
                    else K.h * n.phi() // len(set(self.mu_images)))
        if self.group.order != expected:
            raise OrdistError(
                f"order {self.group.order} != exact-sequence value {expected}")
        # the dlog is a bijection: one residue at each unit vector
        res_of = {co: res for res, co in self.unit_dlog.items()}
        self._unit_reps = [res_of[tuple(int(i == j) for j in range(t))]
                           for i in range(t)]

    # -- presentation plumbing --

    def _pick_class_primes(self):
        K = self.field
        cl = K.class_group
        if cl.is_trivial:
            return ()
        chosen = []
        sub = Subgroup.generated(cl, [])
        p = 1
        while sub.order != cl.order:
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
                if not sub.contains(c):
                    chosen.append(P)
                    sub = Subgroup.generated(cl, [K.ideal_class(q)
                                                  for q in chosen])
                if sub.order == cl.order:
                    break
        return tuple(chosen)

    def _class_setup(self):
        """(orders, stack): the orders of the class-prime classes, and
        the matrix of those classes stacked over the order rows of the
        class group, so that x . stack = c writes a class c through the
        class primes."""
        K = self.field
        inv = K.class_group.invariant_factors
        C = [K.ideal_class(q) for q in self.class_primes]
        orders = [K.class_group.element_order(c) for c in C]
        stack = [list(c) for c in C] + \
            [[m if j == i else 0 for j in range(len(inv))]
             for i, m in enumerate(inv)]
        return orders, IntMatrix.from_rows(stack, len(inv))

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
        r = _residue_reduce(self.modulus.ideal, u)
        if r not in self.unit_dlog:
            raise NotCoprime("element is not a unit modulo n")
        return self.unit_dlog[r]

    def _relation_rows(self):
        t, s = self._t, self._s
        rows = []
        for i, d in enumerate(self.unit_group.invariant_factors):
            rows.append([d if j == i else 0 for j in range(t + s)])
        if self.field.w_K > 1 and len(self.mu_images) > 1:
            z = self.mu_images[1]
            if any(z):
                rows.append(list(z) + [0] * s)
        if s:
            orders = self._class_orders
            # kernel of Z^s -> Cl: basis rows shifted into the nonnegative
            # fundamental box, plus the per-generator order rows; together
            # these generate the full kernel lattice
            ker = rational_kernel(self._class_stack.transpose())
            vrows = {tuple(x % o for x, o in zip(v[:s], orders)) for v in ker}
            vrows.discard(tuple([0] * s))
            for v in sorted(vrows):
                w = self._principal_word(v)
                rows.append([-x for x in w] + list(v))
            for i, o in enumerate(orders):
                use = [o if j == i else 0 for j in range(s)]
                w = self._principal_word(use)
                rows.append([-x for x in w] + use)
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
        s = self._s
        if s == 0:
            g = a.is_principal_generator()
            if g is None:
                raise OrdistError(f"{a} is not principal in class number 1")
            word = list(self._residue_word(g))
        else:
            orders = self._class_orders
            sol = solve_left(self._class_stack, list(K.ideal_class(a)))
            if sol is None:
                raise OrdistError("the class primes do not generate Cl")
            x = [sol[i] % orders[i] for i in range(s)]
            z = [(-xi) % o for xi, o in zip(x, orders)]
            # a*B and J*B are principal for J = prod q^x, B = prod q^z
            g = a.multiply(self._class_product(z)).is_principal_generator()
            if g is None:
                raise OrdistError("a * B is not principal")
            w1 = self._residue_word(g)
            w2 = self._principal_word([e1 + e2 for e1, e2 in zip(x, z)])
            word = [u - v for u, v in zip(w1, w2)] + x
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
        tau_m = None
        for x in g_ell.elements:
            if amb.element_order(x) != q:
                continue
            cyc = Subgroup.generated(amb, [x])
            if cyc.intersection(span).order == 1 and \
                    span.product(cyc).order == g_ell.order:
                tau_m = x
                break
        if tau_m is None:
            raise FrameUnavailable("no complement generator for the last prime")
        taus.append(tau_m)
        jj = amb.zero()
        for tau, p in zip(taus, order):
            jj = amb.add(jj, amb.scale(tau, gs[p] // g_last))
        j = jj
        if m >= 2:
            # with at least two primes the ramification-compensating
            # element recovers the full inertia l-Sylow at the last prime
            if amb.element_order(j) != g_last or \
                    Subgroup.generated(amb, [j]) != syls[p_last]:
                raise OrdistError("j does not generate the last inertia "
                                  "l-Sylow")
    else:
        j = amb.zero()
    return GaloisOverH(
        ray=G_m, ell=ell, r=r, primes=tuple(order), gamma=gamma,
        g_prime=g_prime, g_ell=g_ell,
        inertia_ell=tuple(syls[p] for p in order),
        g=tuple(gs[p] for p in order), taus=tuple(taus), j=j)
