"""Arithmetic of imaginary quadratic fields, in plain integers.

A field K = Q(sqrt(-d)) is carried with its maximal order Z + Z*omega,
omega = sqrt(D)/2 for even fundamental discriminant D and
(1 + sqrt(D))/2 for odd D.  Ring elements are coordinate pairs (x, y)
meaning x + y*omega.  Integral ideals are stored in two-generator
lattice form content * (a Z + ((b + sqrt(D))/2) Z) with b normalized
into [0, 2a); all ideal arithmetic (product, gcd, membership) happens on
the underlying rank-2 lattices through one extended-gcd Hermite
reduction of two columns, so there is a single code path whether or
not ideals are primitive.  An ideal is principal exactly when its
reduced form is the principal form.

This module does not import the linear algebra layer, so a field, its
primes and its ideals cost no more than the interpreter.
The one exception is the class group, built on first use: composition
through ideal multiplication permutes the reduced forms, labelled by
their position in form_reps; as for the residue unit groups,
zlinalg._harvest picks greedy generators, whose permutations alone are
built, and zlinalg._discover reads the structure off them.
search_torsex lists the prime triples over distinct rational primes
that the certificate of the distribution module admits.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from functools import cache, cached_property

from . import OrdistError, _Frozen


class NotSquarefree(OrdistError):
    pass


class NotPrime(OrdistError):
    pass


class FieldMismatch(OrdistError):
    pass


class HypothesisFailed(OrdistError):
    exit_code = 2
    prefix = "hypothesis failure: "


class ModulusTooLarge(OrdistError):
    """A norm above RESIDUE_NORM_BOUND, shown unless it is None."""

    def __init__(self, norm: int | None = None):
        shown = "" if norm is None else f"{norm} "
        super().__init__(f"norm {shown}exceeds {RESIDUE_NORM_BOUND}")


# the largest norm of a modulus whose residue units are enumerated, and
# the largest d of a field (the squarefree test and the reduced forms
# take time of order sqrt(d) and d); a norm is only worked out, and
# shown, below about 2^_SHOWN_BITS (Python prints no int past 4,300
# digits)
RESIDUE_NORM_BOUND, _SHOWN_BITS = 10 ** 6, 1000

# the least strong pseudoprime to all of the first twelve prime bases
# (Sorenson and Webster, 2015): below it, Miller-Rabin to those bases
# decides primality
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below _MR_BOUND, trial division above."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        return all(n % k for k in range(41, math.isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
        if d > RESIDUE_NORM_BOUND:  # before the squarefree test
            raise OrdistError(f"d = {d} exceeds {RESIDUE_NORM_BOUND}")
        if d < 1 or not _is_squarefree(d):
            raise NotSquarefree(f"d = {d} must be squarefree and positive")
        self.d = d
        self.disc = -d if d % 4 == 3 else -4 * d
        D = self.disc
        self.w_K = {-3: 6, -4: 4}.get(D, 2)
        # omega^2 = osq_c + osq_o * omega
        self.osq_o = 0 if D % 2 == 0 else 1
        self.osq_c = D // 4 if D % 2 == 0 else (D - 1) // 4
        self.form_reps = tuple(self._reduced_forms())
        self.h = len(self.form_reps)

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

    def zeta(self):
        """A generator of the roots of unity (order w_K)."""
        # omega = (1+sqrt(-3))/2, a primitive 6th root, or omega = i
        return (0, 1) if self.disc in (-3, -4) else (-1, 0)

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

    @cached_property
    def _classes(self):
        """(class group, dlog of the reduced forms), built on first use.

        This is the one place a field needs zlinalg; the import is
        deferred so that a field, its primes and its ideals do not load
        it.
        """
        from .zlinalg import _discover, _harvest

        forms = self.form_reps
        label = {f: i for i, f in enumerate(forms)}
        ideals = [self.ideal_of_form(f) for f in forms]

        def perm_of(x: int) -> list[int]:
            """Multiplication by the form of label x, on the labels."""
            return [label[self.form_of_ideal(I.multiply(ideals[x]))]
                    for I in ideals]

        ident = label[self.principal_form()]
        perms = _harvest(self.h, perm_of, ident)
        group, bfs, coords = _discover(self.h, perms, ident)
        return group, {forms[i]: coords[i] for i in bfs}

    @property
    def class_group(self):
        """The class group as a zlinalg.AbGroup."""
        return self._classes[0]

    # -- ideals from/to forms --

    def ideal_of_form(self, f) -> "OIdeal":
        a, b, _ = f
        return OIdeal(self, 1, a, b % (2 * a))

    def form_of_ideal(self, I: "OIdeal") -> tuple[int, int, int]:
        c = (I.b * I.b - self.disc) // (4 * I.a)
        return self.reduce_form((I.a, I.b, c))

    def ideal_class(self, I: "OIdeal") -> tuple[int, ...]:
        return self._classes[1][self.form_of_ideal(I)]

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

    @cache
    def splitting_type(self, p: int) -> tuple[str, tuple["OIdeal", ...]]:
        if not _is_prime(p):
            raise NotPrime(f"{p} is not a rational prime")
        D = self.disc
        if D % p == 0:
            roots = [b for b in range(2 * p)
                     if (b - D) % 2 == 0 and (b * b - D) % (4 * p) == 0]
            if len(roots) != 1:
                raise OrdistError(f"ramified {p} has {len(roots)} roots")
            return ("ramified", (OIdeal(self, 1, p, roots[0]),))
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
            return ("split", tuple(OIdeal(self, 1, p, b) for b in roots))
        return ("inert", (OIdeal(self, p, 1, D & 1),))


@cache
def make_field(d: int) -> QuadField:
    return QuadField(d)


# ---------------------------------------------------------------------------
# ideals

class OIdeal(_Frozen):
    """Integral ideal content * (a Z + ((b + sqrt(D))/2) Z).

    b lies in [0, 2a) with b^2 = D mod 4a; the primitive part has norm a.
    """

    _fields = ("field", "content", "a", "b")

    def __init__(self, field: QuadField, content: int, a: int, b: int):
        if content < 1 or a < 1:
            raise OrdistError("ideal must be nonzero and integral")
        if not (0 <= b < 2 * a):
            raise OrdistError("b out of canonical range")
        if (b * b - field.disc) % (4 * a):
            raise OrdistError("b^2 must be D modulo 4a")
        self.__dict__.update(field=field, content=content, a=a, b=b)

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
        """self^e by square and multiply: the canonical form of a product
        does not depend on the order of its factors."""
        out, sq = self.field.unit_ideal(), self
        while e:
            if e & 1:
                out = out.multiply(sq)
            e >>= 1
            if e:
                sq = sq.multiply(sq)
        return out

    def is_principal_generator(self) -> tuple[int, int] | None:
        """Generator as (x, y) with I = ((x + y sqrt(D))/2), if principal."""
        K = self.field
        if K.form_of_ideal(self) != K.principal_form():
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
        """A prime norm, or the square of an inert rational prime r with
        content r."""
        n, r = self.norm(), self.content
        return _is_prime(n) or (r * r == n and _is_prime(r) and
                                self.field.splitting_type(r)[0] == "inert")

    def __repr__(self):
        return f"OIdeal(d={self.field.d}, c={self.content}, a={self.a}, b={self.b})"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b) >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def _ideal_from_lattice(K: QuadField, gens: Iterable[tuple[int, int]]) -> OIdeal:
    """Canonical (content, a, b) of the ideal lattice spanned by gens.

    The Hermite basis of the rows (y, x) is (c, t), (0, c a): c is the
    gcd of the omega coefficients (the content), and c a generates the
    rows with y = 0.  Each row enters the pivot (c, t) through the
    unimodular [[u, v], [y/g, -c/g]], u c + v y = g = gcd(c, y), which
    leaves (g, u t + v x) and the cross term (0, (y t - c x) / g).
    """
    c = t = ca = 0
    for x, y in gens:
        g, u, v = _xgcd(c, y)
        if g:
            c, t, ca = g, u * t + v * x, math.gcd(ca, (y * t - c * x) // g)
        else:
            ca = math.gcd(ca, x)
    if not c or not ca:
        raise OrdistError("generators do not span a full ideal lattice")
    t %= ca
    if t % c or ca % c:
        raise OrdistError("lattice is not an O_K module")
    a = ca // c
    beta = (t // c) % a
    b = 2 * beta + (K.disc & 1)
    return OIdeal(K, c, a, b)


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


# ---------------------------------------------------------------------------
# moduli

class Modulus(_Frozen):
    """A formal product of distinct prime ideals with positive exponents."""

    _fields = ("field", "primes")

    def __init__(self, field: QuadField,
                 primes: tuple[tuple[OIdeal, int], ...]):
        seen = set()
        for p, e in primes:
            if p.field != field:
                raise FieldMismatch("modulus prime from a different field")
            if e < 1:
                raise OrdistError("modulus exponents must be positive")
            if not p.is_prime():
                raise NotPrime(f"{p} is not a prime ideal")
            key = (p.content, p.a, p.b)
            if key in seen:
                raise OrdistError("modulus primes must be distinct")
            seen.add(key)
        canon = tuple(sorted(primes, key=lambda pe: (pe[0].norm(), pe[0].b)))
        self.__dict__.update(field=field, primes=canon)

    @staticmethod
    def one(K: QuadField) -> "Modulus":
        return Modulus(K, ())

    @property
    def n_primes(self) -> int:
        return len(self.primes)

    def norm(self) -> int:
        return math.prod(p.norm() ** e for p, e in self.primes)

    def check_norm(self) -> None:
        """Raise ModulusTooLarge when the norm exceeds RESIDUE_NORM_BOUND.
        Past _SHOWN_BITS bits by the exponents, the norm is not multiplied
        out: it is above 2^500, as every prime norm has two bits or more."""
        bits = sum(e * p.norm().bit_length() for p, e in self.primes)
        if bits > _SHOWN_BITS:
            raise ModulusTooLarge()
        if self.norm() > RESIDUE_NORM_BOUND:
            raise ModulusTooLarge(self.norm())

    def is_one(self) -> bool:
        return not self.primes

    @cached_property
    def ideal(self) -> OIdeal:
        """The product of the prime powers."""
        out = self.field.unit_ideal()
        for p, e in self.primes:
            out = out.multiply(p.pow(e))
        return out

    def v_p(self, p: OIdeal) -> int:
        return next((e for q, e in self.primes if q == p), 0)

    def without(self, p: OIdeal) -> "Modulus":
        """Remove the prime p entirely (n / p^{v_p(n)})."""
        return Modulus(self.field,
                       tuple((q, e) for q, e in self.primes if q != p))

    def with_exponent(self, p: OIdeal, e: int) -> "Modulus":
        rest = tuple((q, k) for q, k in self.primes if q != p)
        return Modulus(self.field, rest + (((p, e),) if e else ()))

    def divides(self, other: "Modulus") -> bool:
        return all(other.v_p(p) >= e for p, e in self.primes)

    def divisors(self) -> list["Modulus"]:
        """All divisor moduli in graded order, by the number of primes and
        then the exponent vector, a total order that refines divisibility."""
        out = [Modulus.one(self.field)]
        for p, e in self.primes:
            out = [d.with_exponent(p, k) for d in out for k in range(e + 1)]
        return sorted(out, key=lambda d: (
            d.n_primes, tuple(d.v_p(p) for p, _ in self.primes)))

    def phi(self) -> int:
        """Order of (O_K/n)^x."""
        return math.prod(p.norm() ** (e - 1) * (p.norm() - 1)
                         for p, e in self.primes)

    def label(self) -> str:
        if not self.primes:
            return "(1)"
        parts = []
        for p, e in self.primes:
            q = p.rational_prime()
            kind, ids = self.field.splitting_type(q)
            s = f"p:{q}:{ids.index(p)}" if kind == "split" else f"q:{q}"
            parts.append(s + (f"^{e}" if e > 1 else ""))
        return ",".join(parts)


def search_torsex(K: QuadField, norm_bound: int):
    """The certificate-admissible prime triples over three distinct
    rational primes, with norms up to a bound.

    Keeps the prime ideals that are principal with norm congruent to
    3 mod 4 (inert primes never qualify: square norms are 0 or 1 mod 4)
    and returns every 3-subset with pairwise distinct residue
    characteristics, in enumeration order.  The certificate also admits
    both primes over a split rational prime, which this search skips.
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
    return [trio for trio in itertools.combinations(found, 3)
            if len({p.rational_prime() for p in trio}) == 3]
