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
ideal, recover the generator, and read off its residue.

The tau-frame decomposes Gamma = ker(G_m -> G_(1)) into the prime-to-l
part and the l-Sylow G_l, writes G_l as an internal direct product of
the inertia l-Sylows for all primes but the last, and solves for a last
frame element whose order drops by the l-part of w_K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadfield import (
    Modulus,
    OIdeal,
    QuadField,
    _residue_reduce,
    residue_units,
)
from .zlinalg import (
    AbGroup,
    AbHom,
    IntMatrix,
    OrdistError,
    _closure,
    _discover,
    _harvest,
    _is_prime,
    hnf,
    rational_kernel,
    snf,
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
# subgroups of a finite abelian group, carried as explicit element sets

@dataclass(frozen=True)
class Subgroup:
    ambient: AbGroup
    elements: tuple[tuple[int, ...], ...]

    @staticmethod
    def generated(ambient: AbGroup, gens) -> "Subgroup":
        closure = _closure(ambient.add, [ambient.zero()],
                           [ambient.reduce(g) for g in gens])
        return Subgroup(ambient, tuple(sorted(closure)))

    @staticmethod
    def whole(ambient: AbGroup) -> "Subgroup":
        return Subgroup(ambient, tuple(sorted(ambient.elements())))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x) -> bool:
        return self.ambient.reduce(x) in self._element_set()

    def _element_set(self):
        return _subgroup_set(self)

    def scaled(self, k: int) -> "Subgroup":
        return Subgroup(self.ambient,
                        tuple(sorted({self.ambient.scale(x, k)
                                      for x in self.elements})))

    def sylow(self, ell: int) -> "Subgroup":
        n = self.order
        while n % ell == 0:
            n //= ell
        return self.scaled(n)  # multiplication by the prime-to-ell part

    def prime_to(self, ell: int) -> "Subgroup":
        n = self.order
        la = 1
        while n % ell == 0:
            n //= ell
            la *= ell
        return self.scaled(la)

    def product(self, other: "Subgroup") -> "Subgroup":
        els = {self.ambient.add(x, y)
               for x in self.elements for y in other.elements}
        return Subgroup(self.ambient, tuple(sorted(els)))

    def intersection(self, other: "Subgroup") -> "Subgroup":
        els = self._element_set() & other._element_set()
        return Subgroup(self.ambient, tuple(sorted(els)))

    def as_group(self):
        """(AbGroup, to_sub, reps): abstract structure, a dict mapping
        every element to its coordinates, and representatives of the
        abstract invariant basis."""
        return _subgroup_structure(self)

    def invariant_factors(self) -> tuple[int, ...]:
        return self.as_group()[0].invariant_factors


@lru_cache(maxsize=None)
def _subgroup_set(sub: Subgroup):
    return frozenset(sub.elements)


@lru_cache(maxsize=None)
def _subgroup_structure(sub: Subgroup):
    """Labels are positions in sub.elements; adding an element is one
    gather on the ambient indices, and zlinalg._harvest and _discover
    run on those permutations."""
    amb = sub.ambient
    els = np.array(sub.elements, dtype=np.int64).reshape(
        sub.order, len(amb.invariant_factors))
    label = np.full(amb.order, -1, dtype=np.int64)
    label[amb.indices(els)] = np.arange(sub.order)

    def perm_of(x: int) -> np.ndarray:
        return label[amb.indices(els, els[x])]

    zero = int(label[0])  # the ambient index of zero is 0
    gens = _harvest(sub.order, perm_of, zero)
    group, bfs, coords = _discover(sub.order, [perm_of(g) for g in gens],
                                   zero)
    dlog = dict(zip(map(tuple, els[bfs].tolist()),
                    map(tuple, coords[bfs].tolist())))
    # dlog is one to one: each basis coordinate vector has one element
    reps = [tuple(els[int(np.argmax((coords == e).all(axis=1)))].tolist())
            for e in np.eye(len(group.invariant_factors), dtype=np.int64)]
    return group, dlog, reps


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
        self._n_ideal = n.ideal()
        self.class_primes = self._pick_class_primes()
        t = len(self.unit_group.invariant_factors)
        s = len(self.class_primes)
        self._t, self._s = t, s
        self._class_orders, self._class_stack = self._class_setup()
        rows = self._relation_rows()
        diag, _, R = snf(IntMatrix.from_rows(rows, t + s)
                         if rows else IntMatrix.zeros(0, t + s))
        if len(diag) != t + s:
            raise OrdistError("ray class presentation is not finite")
        self._diag = diag
        self._R = R.array.tolist()
        Hinv, U = hnf(R)
        if Hinv != IntMatrix.identity(t + s):
            raise OrdistError("ray class coordinate change is not unimodular")
        self._R_inv = U.array.tolist()
        kept = [i for i, d in enumerate(diag) if d > 1]
        self._kept = kept
        self.group = AbGroup(tuple(diag[i] for i in kept))
        expected = (K.h if n.is_one()
                    else K.h * n.phi() // len(set(self.mu_images)))
        if self.group.order != expected:
            raise OrdistError(
                f"order {self.group.order} != exact-sequence value {expected}")
        self._unit_reps = self._unit_basis_reps()
        self._artin_cache: dict = {}
        self._transition_cache: dict = {}
        self._inertia_cache: dict = {}
        self._frobenius_cache: dict = {}
        # (Z[G_n]/S(n), its exponent), kept by
        # groupring.trace_ideal_quotient
        self._trace_quotient = None

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
                if not P.is_coprime(self._n_ideal):
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

    def _principal_word(self, exps):
        """dlog of the residue of a generator of prod q_j^exps (exps >= 0,
        the product must be principal)."""
        K = self.field
        I = K.unit_ideal()
        for q, e in zip(self.class_primes, exps):
            I = I.multiply(q.pow(e))
        g = I.is_principal_generator()
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
        r = _residue_reduce(self._n_ideal, u)
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

    def _unit_basis_reps(self):
        t = self._t
        want = {tuple(1 if i == j else 0 for j in range(t)): None
                for i in range(t)}
        for res, co in self.unit_dlog.items():
            if co in want and want[co] is None:
                want[co] = res
        return [want[tuple(1 if i == j else 0 for j in range(t))]
                for i in range(t)]

    # -- coordinates --

    def word_to_coords(self, word) -> tuple[int, ...]:
        k = self._t + self._s
        full = [sum(word[i] * self._R[i][j] for i in range(k) if word[i])
                for j in range(k)]
        return tuple(full[i] % self._diag[i] for i in self._kept)

    def coords_to_word(self, coords) -> list[int]:
        k = self._t + self._s
        full = [0] * k
        for pos, i in enumerate(self._kept):
            full[i] = coords[pos]
        return [sum(full[i] * self._R_inv[i][j] for i in range(k))
                for j in range(k)]

    # -- the Artin map --

    def artin(self, a: OIdeal) -> tuple[int, ...]:
        key = (a.content, a.a, a.b)
        if key in self._artin_cache:
            return self._artin_cache[key]
        K = self.field
        if a.field != K:
            raise OrdistError("ideal from a different field")
        if not a.is_coprime(self._n_ideal):
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
            B = K.unit_ideal()
            for q, e in zip(self.class_primes, z):
                B = B.multiply(q.pow(e))
            g1 = a.multiply(B).is_principal_generator()
            if g1 is None:
                raise OrdistError("a * B is not principal")
            w1 = self._residue_word(g1)
            JB = K.unit_ideal()
            for q, e1, e2 in zip(self.class_primes, x, z):
                JB = JB.multiply(q.pow(e1 + e2))
            g2 = JB.is_principal_generator()
            if g2 is None:
                raise OrdistError("J * B is not principal")
            w2 = self._residue_word(g2)
            word = [u - v for u, v in zip(w1, w2)] + x
        out = self.word_to_coords(word)
        self._artin_cache[key] = out
        return out

    # -- transitions, inertia, Frobenius --

    def transition(self, n2: Modulus) -> AbHom:
        key = n2.primes
        if key in self._transition_cache:
            return self._transition_cache[key]
        if not n2.divides(self.modulus):
            raise NotDivisor("target modulus does not divide the source")
        target = ray_class_group(self.field, n2)
        imgs = []
        for rep in self._unit_reps:
            w = list(target._unit_dlog_of(rep)) + [0] * target._s
            imgs.append(target.word_to_coords(w))
        for q in self.class_primes:
            imgs.append(target.artin(q))
        rows = []
        k = self._t + self._s
        for irow in range(len(self._kept)):
            word = self.coords_to_word(
                tuple(1 if pos == irow else 0
                      for pos in range(len(self._kept))))
            acc = [0] * len(target.group.invariant_factors)
            for i in range(k):
                if word[i]:
                    for jj, val in enumerate(imgs[i]):
                        acc[jj] += word[i] * val
            rows.append(target.group.reduce(tuple(acc)))
        hom = AbHom(self.group, target.group, tuple(rows))
        if not np.bincount(hom.index_image(),
                           minlength=target.group.order).all():
            raise OrdistError("transition must be onto")
        self._transition_cache[key] = hom
        return hom

    def level_kernel(self, u: Modulus) -> Subgroup:
        """ker(G_n -> G_u) for a divisor modulus u."""
        key = u.primes
        if key in self._inertia_cache:
            return self._inertia_cache[key]
        hom = self.transition(u)
        # index order is the sorted order of the element tuples
        ker = self.group.coordinates()[hom.index_image() == 0]
        sub = Subgroup(self.group, tuple(map(tuple, ker.tolist())))
        if sub.order * hom.codomain.order != self.group.order:
            raise OrdistError("level kernel order does not match the index")
        self._inertia_cache[key] = sub
        return sub

    def inertia(self, p: OIdeal) -> Subgroup:
        if self.modulus.v_p(p) == 0:
            raise PrimeNotInModulus(f"{p} does not divide the modulus")
        return self.level_kernel(self.modulus.without(p))

    def frobenius(self, p: OIdeal) -> tuple[tuple[int, ...], bool]:
        """(representative, exact): exact Artin image for p coprime to n,
        else a lift of the Frobenius of G_{n/p^v}, well defined mod T_p."""
        if self.modulus.v_p(p) == 0:
            return self.artin(p), True
        key = (p.content, p.a, p.b)
        if key in self._frobenius_cache:
            return self._frobenius_cache[key], False
        n2 = self.modulus.without(p)
        target = ray_class_group(self.field, n2)
        hom = self.transition(n2)
        lam = target.artin(p)
        rows = [list(r) for r in hom.matrix] + \
            [[m if j == i else 0
              for j in range(len(target.group.invariant_factors))]
             for i, m in enumerate(target.group.invariant_factors)]
        sol = solve_left(IntMatrix.from_rows(
            rows, len(target.group.invariant_factors)), list(lam))
        if sol is None:
            raise OrdistError("the Frobenius has no preimage under transition")
        lift = self.group.reduce(tuple(sol[:len(self.group.invariant_factors)]))
        if hom.apply(lift) != lam:
            raise OrdistError("the Frobenius lift maps to the wrong class")
        self._frobenius_cache[key] = lift
        return lift, False

    def gamma(self) -> Subgroup:
        """ker(G_m -> G_(1)) as a subgroup."""
        return self.level_kernel(Modulus.one(self.field))


_RAY_CACHE: dict = {}


def ray_class_group(K: QuadField, n: Modulus) -> RayClassGroup:
    key = (K.d, tuple((p.content, p.a, p.b, e) for p, e in n.primes))
    if key not in _RAY_CACHE:
        _RAY_CACHE[key] = RayClassGroup(K, n)
    return _RAY_CACHE[key]


# ---------------------------------------------------------------------------
# the tau-frame over the Hilbert class field

@dataclass(frozen=True)
class GaloisOverH:
    ray: RayClassGroup
    ell: int
    r: int
    primes: tuple[OIdeal, ...]
    gamma: Subgroup
    g_prime: Subgroup
    g_ell: Subgroup
    inertia_ell: tuple[Subgroup, ...]
    g: tuple[int, ...]
    taus: tuple[tuple[int, ...], ...]
    j: tuple[int, ...]


def galois_over_h(G_m: RayClassGroup, ell: int) -> GaloisOverH:
    if not _is_prime(ell):
        raise OrdistError(f"{ell} is not prime")
    K = G_m.field
    gamma = G_m.gamma()
    g_ell = gamma.sylow(ell)
    g_prime = gamma.prime_to(ell)
    r = 0
    w = K.w_K
    while w % ell == 0:
        w //= ell
        r += 1
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
        grp, _, reps = syls[p].as_group()
        if len(grp.invariant_factors) > 1:
            raise FrameUnavailable(f"inertia l-Sylow at {p} is not cyclic")
        tau = reps[0] if reps else amb.zero()
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
                    Subgroup.generated(amb, [j])._element_set() != \
                    syls[p_last]._element_set():
                raise OrdistError("j does not generate the last inertia "
                                  "l-Sylow")
    else:
        j = amb.zero()
    return GaloisOverH(
        ray=G_m, ell=ell, r=r, primes=tuple(order), gamma=gamma,
        g_prime=g_prime, g_ell=g_ell,
        inertia_ell=tuple(syls[p] for p in order),
        g=tuple(gs[p] for p in order), taus=tuple(taus), j=j)
