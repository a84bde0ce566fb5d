"""Expected values computed apart from ordist.

Everything here is derived from closed forms and elementary arithmetic
in Z[omega], written afresh for the benchmark; it imports nothing from
ordist.  A level is a pair (d, primes) with primes a tuple of
(q, index) for split or ramified rational primes q, each to the first
power, exactly as the CLI spec p:<q>:<index> names them.

* class_number(D): reduced binary forms of discriminant D.
* ray_order(d, primes): |G_u| = h * prod(N(p) - 1) / #(mu_w in (O/u)*),
  the unit image counted from the roots of unity themselves.
* presentation_counts(d, primes): generators = sum_{u | m} |G_u| and
  relations = sum_u |G_u| * #{p | m : p does not divide u}.
* order_bound(d, k): w^((2^(k-1) - k) h).
* smith_torsion(rows, cols): torsion of Z^cols / rowspace(rows) by
  unit-pivot elimination followed by sympy's Smith normal form.
"""

from __future__ import annotations

import itertools
import math


def disc(d: int) -> int:
    return -d if d % 4 == 3 else -4 * d


def unit_count(d: int) -> int:
    return {-3: 6, -4: 4}.get(disc(d), 2)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def class_number(D: int) -> int:
    """Number of reduced primitive forms (a, b, c) with b^2 - 4ac = D."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def _omega(d: int) -> tuple[int, int]:
    """(t, n) with omega^2 = t * omega - n for O = Z[omega]."""
    D = disc(d)
    if D % 4 == 0:
        return 0, -D // 4
    return 1, (1 - D) // 4


def splitting(d: int, q: int) -> str:
    """'ramified', 'split' or 'inert' for the rational prime q."""
    D = disc(d)
    if D % q == 0:
        return "ramified"
    t, n = _omega(d)
    roots = [r for r in range(q) if (r * r - t * r + n) % q == 0]
    return "split" if roots else "inert"


def _root(d: int, q: int) -> int:
    t, n = _omega(d)
    return next(r for r in range(q) if (r * r - t * r + n) % q == 0)


def _roots_of_unity(d: int) -> list[tuple[int, int]]:
    """zeta^k for k < w as (a, b) meaning a + b omega."""
    t, n = _omega(d)
    w = unit_count(d)
    zeta = (-1, 0) if w == 2 else (0, 1)
    out = [(1, 0)]
    for _ in range(w - 1):
        a, b = out[-1]
        c, e = zeta
        # (a + b w)(c + e w) with w^2 = t w - n
        out.append((a * c - b * e * n, a * e + b * c + b * e * t))
    return out


def unit_image(d: int, primes) -> int:
    """#(image of mu_w in (O/u)*) for u the product of the primes.

    Whether zeta^k is 1 modulo a degree-one prime above q does not
    depend on which of the two conjugate primes is meant, so one root
    of the minimal polynomial of omega serves both.
    """
    zetas = _roots_of_unity(d)
    fixed = 0
    for a, b in zetas:
        if all((a + b * _root(d, q) - 1) % q == 0 for q, _ in primes):
            fixed += 1
    return len(zetas) // fixed


def ray_order(d: int, primes) -> int:
    h = class_number(disc(d))
    if not primes:
        return h
    for q, _ in primes:
        if splitting(d, q) == "inert":
            raise ValueError(f"{q} is inert in Q(sqrt(-{d}))")
    phi = math.prod(q - 1 for q, _ in primes)
    return h * phi // unit_image(d, primes)


def presentation_counts(d: int, primes) -> tuple[int, int]:
    """(generators, relations) of the level presentation of m."""
    primes = tuple(primes)
    gens = rels = 0
    for k in range(len(primes) + 1):
        for u in itertools.combinations(primes, k):
            g = ray_order(d, u)
            gens += g
            rels += g * (len(primes) - k)
    return gens, rels


def order_bound(d: int, k: int) -> int:
    a = (1 << (k - 1)) - k if k else 0
    return unit_count(d) ** (a * class_number(disc(d)))


def odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def search_count(d: int, bound: int) -> int:
    """Admissible certificate triples with norms up to bound.

    A prime ideal qualifies when it has degree one, norm q = 3 mod 4 and
    is principal, i.e. q is a value of the norm form of Z[omega].  The
    triples are 3-subsets of qualifying ideals over distinct q.
    """
    if unit_count(d) != 2:
        raise ValueError("search needs w = 2")
    t, n = _omega(d)
    per_q = []
    for q in range(3, bound + 1):
        if not is_prime(q) or q % 4 != 3:
            continue
        kind = splitting(d, q)
        if kind == "inert":
            continue
        # norm(x + y omega) = x^2 + t x y + n y^2
        ymax = math.isqrt(4 * q // max(1, 4 * n - t * t)) + 1
        principal = any(x * x + t * x * y + n * y * y == q
                        for y in range(0, ymax + 1)
                        for x in range(-2 * q, 2 * q + 1))
        if principal:
            per_q.append(2 if kind == "split" else 1)
    return sum(math.prod(c) for c in itertools.combinations(per_q, 3))


def sweep_cases(max_primes: int) -> int:
    """Order multisets of sizes 1..max_primes drawn from {l, l^2}."""
    return sum(m + 1 for m in range(1, max_primes + 1))


def _unit_pivot_reduce(rows, cols):
    """Eliminate +-1 pivots exactly; return (pivots, remaining rows).

    Each pivot clears its column from every other row and then drops
    its own row and column, which removes one invariant factor 1 and
    leaves the rest of the Smith form unchanged.
    """
    live = [{j: v for j, v in enumerate(r) if v} for r in rows]
    live = [r for r in live if r]
    by_col: dict[int, set[int]] = {}
    for i, r in enumerate(live):
        for j in r:
            by_col.setdefault(j, set()).add(i)
    alive = set(range(len(live)))
    pivots = 0
    while True:
        best = None
        for i in alive:
            for j, v in live[i].items():
                if v in (1, -1):
                    cost = (len(live[i]) - 1) * (len(by_col[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
                        if cost == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j = best
        prow = live[i]
        sign = prow[j]
        for k in list(by_col[j]):
            if k == i:
                continue
            row = live[k]
            f = row[j] * sign
            for c, v in prow.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    if c not in row:
                        by_col.setdefault(c, set()).add(k)
                    row[c] = nv
                else:
                    if c in row:
                        del row[c]
                        by_col[c].discard(k)
            if not row:
                alive.discard(k)
        for c in prow:
            by_col[c].discard(i)
        alive.discard(i)
        pivots += 1
    rest = [live[i] for i in sorted(alive) if live[i]]
    return pivots, rest


def smith_torsion(rows, cols: int) -> tuple[tuple[int, ...], int]:
    """(torsion invariants, free rank) of Z^cols / rowspace(rows)."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    pivots, rest = _unit_pivot_reduce(rows, cols)
    used = sorted({j for r in rest for j in r})
    if rest:
        index = {j: n for n, j in enumerate(used)}
        dense = [[ZZ(0)] * len(used) for _ in rest]
        for i, r in enumerate(rest):
            for j, v in r.items():
                dense[i][index[j]] = ZZ(v)
        inv = [int(x) for x in invariant_factors(
            DomainMatrix(dense, (len(rest), len(used)), ZZ))]
    else:
        inv = []
    nonzero = [abs(x) for x in inv if x]
    rank = pivots + len(nonzero)
    return tuple(x for x in nonzero if x > 1), cols - rank
