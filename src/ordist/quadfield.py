"""Arithmetic of imaginary quadratic fields.

A field K = Q(sqrt(-d)) is carried with its maximal order Z + Z*omega,
omega = sqrt(D)/2 for even fundamental discriminant D and
(1 + sqrt(D))/2 for odd D.  Ring elements are coordinate pairs (x, y)
meaning x + y*omega.  Integral ideals are stored in two-generator
lattice form content * (a Z + ((b + sqrt(D))/2) Z) with b normalized
into [0, 2a); all ideal arithmetic (product, gcd, membership) happens on
the underlying rank-2 lattices through Hermite reduction, so there is a
single code path whether or not ideals are primitive.

The class group is built by enumerating reduced binary quadratic forms
and closing them under composition-through-ideal-multiplication with
ab_discover, which labels the classes once.  Unit groups of residue
rings are found on indices instead: the residues are the entries of
int64 arrays, multiplication by a unit is one vectorised product that
permutes the unit labels, and the generator harvest and the abelian
structure run on those permutations.  Both end in the same structure
core, zlinalg._discover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .zlinalg import (
    AbGroup,
    OrdistError,
    _discover,
    _harvest,
    _is_prime,
    ab_discover,
    hnf_basis,
)

RESIDUE_NORM_BOUND = 10 ** 6


class NotSquarefree(OrdistError):
    pass


class NotPrime(OrdistError):
    pass


class FieldMismatch(OrdistError):
    pass


class ModulusTooLarge(OrdistError):
    pass


def _is_squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


class QuadField:
    """The imaginary quadratic field Q(sqrt(-d)), d squarefree positive."""

    def __init__(self, d: int):
        if d < 1 or not _is_squarefree(d):
            raise NotSquarefree(f"d = {d} must be squarefree and positive")
        self.d = d
        self.disc = -d if d % 4 == 3 else -4 * d
        D = self.disc
        if D == -3:
            self.w_K = 6
        elif D == -4:
            self.w_K = 4
        else:
            self.w_K = 2
        # omega^2 = osq_c + osq_o * omega
        self.osq_o = 0 if D % 2 == 0 else 1
        self.osq_c = D // 4 if D % 2 == 0 else (D - 1) // 4
        self.form_reps = tuple(self._reduced_forms())
        self.h = len(self.form_reps)
        self.class_group, self._form_dlog = self._build_class_group()
        self._prime_cache: dict[int, tuple[str, tuple["OIdeal", ...]]] = {}

    def __eq__(self, other):
        return isinstance(other, QuadField) and other.d == self.d

    def __hash__(self):
        return hash(("QuadField", self.d))

    def __repr__(self):
        return f"QuadField(d={self.d}, D={self.disc}, h={self.h})"

    # -- element arithmetic in the omega basis --

    def elt_mul(self, u, v):
        a, b = u
        c, e = v
        be = b * e
        return (a * c + be * self.osq_c, a * e + b * c + be * self.osq_o)

    def elt_conj(self, u):
        a, b = u
        return (a + b * self.osq_o, -b)

    def elt_norm(self, u) -> int:
        a, b = u
        return a * a + self.osq_o * a * b + ((self.osq_o - self.disc) // 4) * b * b

    def elt_trace(self, u) -> int:
        a, b = u
        return 2 * a + self.osq_o * b

    def elt_pow(self, u, k: int):
        out = (1, 0)
        for _ in range(k):
            out = self.elt_mul(out, u)
        return out

    def zeta(self):
        """A generator of the roots of unity (order w_K)."""
        if self.disc == -3:
            return (0, 1)  # omega = (1+sqrt(-3))/2, a primitive 6th root
        if self.disc == -4:
            return (0, 1)  # omega = i
        return (-1, 0)

    def to_half_coords(self, u) -> tuple[int, int]:
        """(x, y) with u = (x + y sqrt(D))/2."""
        a, b = u
        return (2 * a + self.osq_o * b, b)

    # -- forms --

    def principal_form(self) -> tuple[int, int, int]:
        v = self.disc & 1
        return (1, v, (v * v - self.disc) // 4)

    def _reduced_forms(self):
        D = self.disc
        out = []
        for a in range(1, math.isqrt(-D // 3) + 1):
            for b in range(-a + 1, a + 1):
                if (b * b - D) % (4 * a):
                    continue
                c = (b * b - D) // (4 * a)
                if c < a:
                    continue
                if b < 0 and (a == c or -b == a):
                    continue
                out.append((a, b, c))
        return sorted(out)

    def reduce_form(self, f) -> tuple[int, int, int]:
        a, b, c = f
        while True:
            if b > a or b <= -a:
                k = (a - b) // (2 * a)  # shift b into (-a, a]
                c += k * b + k * k * a
                b += 2 * k * a
            if c < a:
                a, b, c = c, -b, a
                continue
            break
        if b < 0 and (a == c or -b == a):
            b = -b
        return (a, b, c)

    def _build_class_group(self):
        ident = self.principal_form()

        def compose(f, g):
            return self.form_of_ideal(
                self.ideal_of_form(f).multiply(self.ideal_of_form(g)))

        group, dlog = ab_discover(self.h, compose, list(self.form_reps),
                                  identity=ident)
        return group, dlog

    # -- ideals from/to forms --

    def ideal_of_form(self, f) -> "OIdeal":
        a, b, _ = f
        return OIdeal(self, 1, a, b % (2 * a))

    def form_of_ideal(self, I: "OIdeal") -> tuple[int, int, int]:
        c = (I.b * I.b - self.disc) // (4 * I.a)
        return self.reduce_form((I.a, I.b, c))

    def ideal_class(self, I: "OIdeal") -> tuple[int, ...]:
        return self._form_dlog[self.form_of_ideal(I)]

    def unit_ideal(self) -> "OIdeal":
        return OIdeal(self, 1, 1, self.disc & 1)

    def principal_ideal(self, u) -> "OIdeal":
        """The ideal generated by the element u = (x, y) in omega coords."""
        if u == (0, 0):
            raise OrdistError("zero element generates the zero ideal")
        w = self.elt_mul(u, (0, 1))
        I = _ideal_from_lattice(self, [u, w])
        if I.norm() != abs(self.elt_norm(u)):
            raise OrdistError("principal ideal norm differs from the "
                              "element norm")
        return I

    # -- prime splitting --

    def splitting_type(self, p: int) -> tuple[str, tuple["OIdeal", ...]]:
        if p in self._prime_cache:
            return self._prime_cache[p]
        if not _is_prime(p):
            raise NotPrime(f"{p} is not a rational prime")
        D = self.disc
        if D % p == 0:
            roots = [b for b in range(2 * p)
                     if (b - D) % 2 == 0 and (b * b - D) % (4 * p) == 0]
            if len(roots) != 1:
                raise OrdistError(f"ramified {p} has {len(roots)} roots")
            res = ("ramified", (OIdeal(self, 1, p, roots[0]),))
        else:
            if p == 2:
                sym = 1 if D % 8 == 1 else -1
            else:
                ls = pow(D % p, (p - 1) // 2, p)
                sym = 1 if ls == 1 else -1
            if sym == 1:
                roots = sorted(b for b in range(2 * p)
                               if (b - D) % 2 == 0 and (b * b - D) % (4 * p) == 0)
                if len(roots) != 2:
                    raise OrdistError(f"split {p} has {len(roots)} roots")
                res = ("split", tuple(OIdeal(self, 1, p, b) for b in roots))
            else:
                res = ("inert", (OIdeal(self, p, 1, D & 1),))
        self._prime_cache[p] = res
        return res


@lru_cache(maxsize=None)
def make_field(d: int) -> QuadField:
    return QuadField(d)


def splitting_type(K: QuadField, p: int):
    return K.splitting_type(p)


# ---------------------------------------------------------------------------
# ideals

@dataclass(frozen=True)
class OIdeal:
    """Integral ideal content * (a Z + ((b + sqrt(D))/2) Z).

    b lies in [0, 2a) with b^2 = D mod 4a; the primitive part has norm a.
    """

    field: QuadField
    content: int
    a: int
    b: int

    def __post_init__(self):
        if self.content < 1 or self.a < 1:
            raise OrdistError("ideal must be nonzero and integral")
        if not (0 <= self.b < 2 * self.a):
            raise OrdistError("b out of canonical range")
        if (self.b * self.b - self.field.disc) % (4 * self.a):
            raise OrdistError("b^2 must be D modulo 4a")

    def norm(self) -> int:
        return self.content * self.content * self.a

    def beta(self):
        """Second lattice generator of the primitive part, omega coords."""
        return ((self.b - (self.field.disc & 1)) // 2, 1)

    def lattice_rows(self):
        """Generators as (x, y) omega-coordinate rows, scaled by content."""
        c = self.content
        bx, by = self.beta()
        return [(c * self.a, 0), (c * bx, c * by)]

    def contains(self, u) -> bool:
        x, y = u
        c = self.content
        if y % c:
            return False
        n = y // c
        bx, _ = self.beta()
        return (x - n * c * bx) % (c * self.a) == 0

    def multiply(self, other: "OIdeal") -> "OIdeal":
        if other.field != self.field:
            raise FieldMismatch("ideals from different fields")
        K = self.field
        rows = []
        for u in self.lattice_rows():
            for v in other.lattice_rows():
                rows.append(K.elt_mul(u, v))
        out = _ideal_from_lattice(K, rows)
        if out.norm() != self.norm() * other.norm():
            raise OrdistError("ideal norm is not multiplicative")
        return out

    def gcd(self, other: "OIdeal") -> "OIdeal":
        if other.field != self.field:
            raise FieldMismatch("ideals from different fields")
        return _ideal_from_lattice(self.field,
                                   self.lattice_rows() + other.lattice_rows())

    def is_coprime(self, other: "OIdeal") -> bool:
        return self.gcd(other).norm() == 1

    def pow(self, e: int) -> "OIdeal":
        out = self.field.unit_ideal()
        for _ in range(e):
            out = out.multiply(self)
        return out

    def conjugate(self) -> "OIdeal":
        bx, by = self.beta()
        cx, cy = self.field.elt_conj((bx, by))
        # conj generator has omega coefficient -1; negate to renormalize
        rows = [(self.content * self.a, 0),
                (-self.content * cx, -self.content * cy)]
        return _ideal_from_lattice(self.field, rows)

    def is_principal_generator(self) -> Optional[tuple[int, int]]:
        """Generator as (x, y) with I = ((x + y sqrt(D))/2), if principal."""
        K = self.field
        if K.ideal_class(self) != K.class_group.zero():
            return None
        u = (self.a, 0)
        w = self.beta()
        # Lagrange reduction for the positive definite norm form
        while True:
            nu = K.elt_norm(u)
            num = K.elt_trace(K.elt_mul(w, K.elt_conj(u)))
            q = (2 * num + 2 * nu) // (4 * nu)  # round(num / (2 nu))
            if q:
                w = (w[0] - q * u[0], w[1] - q * u[1])
            if K.elt_norm(w) < nu:
                u, w = w, u
            else:
                break
        g = (self.content * u[0], self.content * u[1])
        if abs(K.elt_norm(g)) != self.norm():
            return None
        if K.principal_ideal(g) != self:
            raise OrdistError("reduced generator spans another ideal")
        return K.to_half_coords(g)

    def rational_prime(self) -> int:
        """For a prime ideal, the rational prime below it."""
        n = self.norm()
        if _is_prime(n):
            return n
        r = math.isqrt(n)
        if r * r == n and _is_prime(r):
            return r
        raise NotPrime(f"ideal of norm {n} is not prime")

    def is_prime(self) -> bool:
        n = self.norm()
        if _is_prime(n):
            return True
        r = math.isqrt(n)
        if r * r == n and _is_prime(r) and self.content == r:
            kind, _ = self.field.splitting_type(r)
            return kind == "inert"
        return False

    def __repr__(self):
        return f"OIdeal(d={self.field.d}, c={self.content}, a={self.a}, b={self.b})"


def _ideal_from_lattice(K: QuadField, gens: Iterable[tuple[int, int]]) -> OIdeal:
    """Canonical (content, a, b) of the ideal lattice spanned by gens.

    Rows enter Hermite reduction as (y, x) so the first pivot is the gcd
    of omega coefficients (= content) and the second is content * a.
    """
    rows = [(y, x) for x, y in gens if (x, y) != (0, 0)]
    basis = hnf_basis(rows)
    if len(basis) != 2:
        raise OrdistError("generators do not span a full ideal lattice")
    c, t = basis[0]
    ca = basis[1][1]
    if basis[1][0] != 0:
        raise OrdistError("ideal lattice basis is not triangular")
    if t % c or ca % c:
        raise OrdistError("lattice is not an O_K module")
    a = ca // c
    beta = (t // c) % a
    b = 2 * beta + (K.disc & 1)
    return OIdeal(K, c, a, b)


# ---------------------------------------------------------------------------
# moduli

@dataclass(frozen=True)
class Modulus:
    """A formal product of distinct prime ideals with positive exponents."""

    field: QuadField
    primes: tuple[tuple[OIdeal, int], ...]

    def __post_init__(self):
        seen = set()
        for p, e in self.primes:
            if p.field != self.field:
                raise FieldMismatch("modulus prime from a different field")
            if e < 1:
                raise OrdistError("modulus exponents must be positive")
            if not p.is_prime():
                raise NotPrime(f"{p} is not a prime ideal")
            key = (p.content, p.a, p.b)
            if key in seen:
                raise OrdistError("modulus primes must be distinct")
            seen.add(key)
        canon = tuple(sorted(self.primes,
                             key=lambda pe: (pe[0].norm(), pe[0].b)))
        object.__setattr__(self, "primes", canon)

    @staticmethod
    def one(K: QuadField) -> "Modulus":
        return Modulus(K, ())

    @property
    def n_primes(self) -> int:
        return len(self.primes)

    def norm(self) -> int:
        return math.prod(p.norm() ** e for p, e in self.primes)

    def is_one(self) -> bool:
        return not self.primes

    def ideal(self) -> OIdeal:
        out = self.field.unit_ideal()
        for p, e in self.primes:
            out = out.multiply(p.pow(e))
        return out

    def v_p(self, p: OIdeal) -> int:
        for q, e in self.primes:
            if q == p:
                return e
        return 0

    def without(self, p: OIdeal) -> "Modulus":
        """Remove the prime p entirely (n / p^{v_p(n)})."""
        return Modulus(self.field,
                       tuple((q, e) for q, e in self.primes if q != p))

    def with_exponent(self, p: OIdeal, e: int) -> "Modulus":
        rest = tuple((q, k) for q, k in self.primes if q != p)
        if e:
            rest = rest + ((p, e),)
        return Modulus(self.field, rest)

    def divides(self, other: "Modulus") -> bool:
        return all(other.v_p(p) >= e for p, e in self.primes)

    def exponent_key(self, ambient: "Modulus") -> tuple:
        """Total-order key (grade, exponent vector) inside ambient's
        divisor lattice; refines divisibility."""
        exps = tuple(self.v_p(p) for p, _ in ambient.primes)
        return (self.n_primes, exps)

    def divisors(self) -> list["Modulus"]:
        """All divisor moduli, sorted by the graded order above."""
        out = [Modulus.one(self.field)]
        for p, e in self.primes:
            out = [d.with_exponent(p, k) for d in out for k in range(e + 1)]
        return sorted(out, key=lambda d: d.exponent_key(self))

    def phi(self) -> int:
        """Order of (O_K/n)^x."""
        out = 1
        for p, e in self.primes:
            np = p.norm()
            out *= np ** e - np ** (e - 1)
        return out

    def label(self) -> str:
        if not self.primes:
            return "(1)"
        parts = []
        for p, e in self.primes:
            q = p.rational_prime()
            kind, ids = self.field.splitting_type(q)
            if kind == "split":
                idx = ids.index(p)
                s = f"p:{q}:{idx}"
            else:
                s = f"q:{q}"
            if e > 1:
                s += f"^{e}"
            parts.append(s)
        return ",".join(parts)


# ---------------------------------------------------------------------------
# residue unit groups

def _residue_reduce(n_ideal: OIdeal, u):
    """Canonical representative of u modulo the ideal lattice."""
    c = n_ideal.content
    ca = c * n_ideal.a
    bx, _ = n_ideal.beta()
    x, y = u
    k = y // c
    x -= k * c * bx
    y -= k * c
    return (x % ca, y)


def residue_units(K: QuadField, n: Modulus):
    """Structure of (O_K/n)^x: (AbGroup, dlog, mu_images).

    dlog maps every coprime canonical residue (x, y) to invariant
    coordinates, in the breadth-first order in which the generators
    reach it; mu_images lists the images of zeta^0 ... zeta^{w_K - 1}.

    The residues x + y*omega, 0 <= x < c a and 0 <= y < c for
    n = c (a Z + beta Z), are the indices y c a + x of int64 arrays,
    and the units are labelled in that order.  Multiplication by a unit
    g is x g + y (omega g): one vectorised product and reduction of all
    units at once, which gives a permutation of the unit labels.  The
    greedy harvest and the structure then run on those permutations
    (zlinalg._harvest and zlinalg._discover).
    """
    if n.norm() > RESIDUE_NORM_BOUND:
        raise ModulusTooLarge(f"norm {n.norm()} exceeds {RESIDUE_NORM_BOUND}")
    if n.is_one():
        return AbGroup(()), {(0, 0): ()}, [()] * K.w_K
    nid = n.ideal()
    c, ca = nid.content, nid.content * nid.a
    bx = nid.beta()[0]
    y, x = np.divmod(np.arange(c * ca, dtype=np.int64), ca)
    # non-unit residues at a prime P over p: x - y*beta_P = 0 mod p for
    # split/ramified P, p | x and p | y for inert P
    unit = np.ones(c * ca, dtype=bool)
    for p, _ in n.primes:
        q = p.rational_prime()
        if p.content == 1:
            unit &= (x - y * p.beta()[0]) % q != 0
        else:
            unit &= (x % q != 0) | (y % q != 0)
    units = np.flatnonzero(unit)
    order = n.phi()
    if len(units) != order:
        raise OrdistError(f"found {len(units)} residue units, phi(n) = {order}")
    label = np.full(c * ca, -1, dtype=np.int64)
    label[units] = np.arange(order)
    ux, uy = x[units], y[units]

    def label_of(u) -> int:
        rx, ry = _residue_reduce(nid, u)
        return int(label[ry * ca + rx])

    def perm_of(g: int) -> np.ndarray:
        """Multiplication by the unit of label g, on unit labels."""
        u = (int(ux[g]), int(uy[g]))
        # x u + y (omega u), reduced; entries stay below 2 (c a)^2
        (gx, gy), (hx, hy) = (_residue_reduce(nid, v)
                              for v in (u, K.elt_mul((0, 1), u)))
        X, Y = ux * gx + uy * hx, ux * gy + uy * hy
        k = Y // c
        X = (X - k * c * bx) % ca
        out = label[(Y - k * c) * ca + X]
        if (out < 0).any():
            raise OrdistError("a product of residue units is not a unit")
        return out

    ident = label_of((1, 0))
    gens = _harvest(order, perm_of, ident)
    group, bfs, coords = _discover(order, [perm_of(g) for g in gens], ident)
    dlog = dict(zip(zip(ux[bfs].tolist(), uy[bfs].tolist()),
                    map(tuple, coords[bfs].tolist())))
    z = perm_of(label_of(K.zeta()))
    mu, cur = [], ident
    for _ in range(K.w_K):
        mu.append(tuple(coords[cur].tolist()))
        cur = int(z[cur])
    return group, dlog, mu
