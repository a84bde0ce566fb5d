"""The character count mod p: the reference for the exact count over Q.

`ordist.distribution._character_rank` counts, over Q, the cyclic
quotients of G_m at which some head has a nonzero primitive part.  The
earlier count, kept here, counted the characters of G_m at which some
head is nonzero mod a prime p = 1 mod the exponent of G_m, with a q^a x
q^a table of powers per prime-power part q^a of each invariant factor,
and took the best of three such primes: a lower bound for the rank over
Q, equal to it wherever one of the primes divides no minor that matters.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from ordist.quadfield import _is_prime
from ordist.zlinalg import AbGroup, _prime_divisors, _val


@functools.lru_cache(maxsize=None)
def character_primes(e: int) -> tuple[int, ...]:
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


def root_of_unity(d: int, p: int) -> int:
    """A primitive d-th root of unity mod the prime p, for p = 1 mod d."""
    qs = _prime_divisors(d)
    for g in range(2, p):
        root = pow(g, (p - 1) // d, p)
        if all(pow(root, d // q, p) != 1 for q in qs):
            return root
    raise ValueError(f"no primitive {d}-th root of unity mod {p}")


def character_count(heads, factors: tuple[int, ...], p: int) -> int:
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
        if character_count([mix], factors, p) == n:
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
        root = root_of_unity(d, p)
        table = [[pow(root, j * k % d, p) for k in range(d)]
                 for j in range(d)]
        span = d * stride
        for b in range(0, len(X), span):
            for i in range(b, b + stride):
                line = X[i:i + span:stride]
                X[i:i + span:stride] = [sum(map(mul, w, line)) % p
                                        for w in table]
    return sum(map(any, zip(*(X[i:i + n] for i in range(0, len(X), n)))))


def character_rank(heads, factors: tuple[int, ...]) -> int:
    """The best count of character_count over the three primes of
    character_primes: a lower bound for the rank over Q of the
    translates of the heads."""
    n = math.prod(factors)
    best = 0
    for p in character_primes(AbGroup(factors).exponent):
        best = max(best, character_count(heads, factors, p))
        if best == n:
            break
    return best
