"""Exact linear algebra over the integers.

No floating point enters any result.  A matrix is one read-only numpy
array: int64 while every entry fits, an object array of Python ints
otherwise.  One helper, _promote, makes that choice from a bound on the
entries, both when a matrix is built and before every int64 computation
whose results could outgrow it.  Lattices are row spaces of integer
matrices.  Finitely generated abelian groups are cokernels
Z^n / rowspace(R), described by invariant factors d_1 | d_2 | ... (0
encodes an infinite cyclic factor, factors equal to 1 are dropped).

The workhorse is a row echelon pass with minimal-absolute-value pivoting
and repeated Euclidean reduction on object rows, used for Hermite forms,
kernels and left solves.  Smith forms use alternating row and column
elimination with a divisibility fix-up.  A separate layered elimination
over Z/p^K gives ranks over F_p and the p-adic valuations of the
invariant factors; for large inputs it independently re-verifies the
Smith form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class OrdistError(Exception):
    """Base class for all package errors."""


class LinalgError(OrdistError):
    pass


class NotSubLattice(LinalgError):
    """Raised when a claimed sublattice has a vector outside the big lattice."""


class GeneratorsInsufficient(LinalgError):
    """Raised when black-box generators do not generate the whole group."""


# ---------------------------------------------------------------------------
# matrices

# int64 holds exactly the integers of absolute value below 2^63
_INT64_BOUND = 1 << 63


def _abs_max(a: np.ndarray) -> int:
    """Largest absolute entry as a Python int, 0 when a is empty."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _promote(a: np.ndarray, bound: int | None = None) -> np.ndarray:
    """The one int64/object choice of the package.

    bound caps the absolute value of every entry the caller holds in the
    array, now and after the arithmetic it is about to do; it defaults
    to the largest entry.  Below 2^63 the array comes back as int64,
    otherwise as an object array of Python ints (a itself when it
    already has that dtype).
    """
    if bound is None:
        bound = _abs_max(a)
    return a.astype(np.int64 if bound < _INT64_BOUND else object, copy=False)


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Immutable integer matrix on one read-only numpy array.

    The array is int64 when every entry fits and object otherwise.  The
    constructor takes ownership of the array it is given and freezes it.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array)
        if a.ndim != 2:
            raise LinalgError("a matrix needs a 2-D array")
        a = _promote(a)
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints."""
        return tuple(tuple(r.tolist()) for r in self.array)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if not rows:
            return IntMatrix.zeros(0, cols)
        try:  # integer rows parse to an integer dtype
            a = np.array(rows)
        except ValueError:
            raise LinalgError("column count mismatch")
        if a.dtype.kind not in "biu":
            # past int64 numpy falls back to float64 or object, so
            # look at the entries themselves
            if not all(isinstance(x, (int, np.integer))
                       for r in rows for x in r):
                raise LinalgError("matrix entries must be integers")
            a = np.array([[int(x) for x in r] for r in rows], dtype=object)
        if a.shape != (len(rows), cols):
            raise LinalgError("column count mismatch")
        return IntMatrix(a)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(np.identity(n, dtype=np.int64))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise LinalgError("negative matrix dimensions")
        return IntMatrix(np.zeros((rows, cols), dtype=np.int64))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return int(self.array[i, j])

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.array[i].tolist())

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.array.shape, tuple(self.array.ravel().tolist())))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.array.T)

    # plain text serialization: header "rows cols", then one row per line,
    # base-10, space separated.  Round-trips bit exactly.
    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(map(str, r.tolist())) for r in self.array]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "IntMatrix":
        lines = [ln for ln in text.strip().splitlines()]
        if not lines:
            raise LinalgError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise LinalgError("bad matrix header")
        rows, cols = int(head[0]), int(head[1])
        if len(lines) != rows + 1:
            raise LinalgError("bad matrix body")
        data = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != cols:
                raise LinalgError("bad matrix row length")
            data.append([int(x) for x in parts])
        return IntMatrix.from_rows(data, cols)


def _as_matrix(A, cols: int | None = None) -> IntMatrix:
    """A itself, or the matrix of a sequence of int rows."""
    return A if isinstance(A, IntMatrix) else IntMatrix.from_rows(A, cols)


def _rows_of(A) -> tuple[list[np.ndarray], int]:
    """Writable object rows of a matrix or row sequence, and its width."""
    mat = _as_matrix(A)
    return list(mat.array.astype(object)), mat.cols


# ---------------------------------------------------------------------------
# echelon core

_GROWTH_LIMIT = 1 << 96

# side length beyond which snf_invariants re-verifies itself modularly
_VERIFY_DIM = 500


def _row_content(row: np.ndarray) -> int:
    g = 0
    for x in row.tolist():
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return 1
    return g


def _echelon(rows: list[np.ndarray], col_start: int, col_stop: int,
             gcd_rows: bool = False) -> tuple[list[tuple[int, np.ndarray]], list[np.ndarray]]:
    """Row echelon over Z on columns [col_start, col_stop).

    Rows must have zero entries in any column left of col_start that has
    already been pivoted; every arithmetic operation works on the slice
    row[col:] so callers must keep augmented blocks to the right.  When
    gcd_rows is set, rows are divided by their content when entries grow
    past a threshold (contents are harmless for kernel extraction but
    would change the row lattice, so plain HNF keeps them).

    Returns (pivots, rest): pivots is a list of (column, row) with
    positive pivot entries, rest the rows that are zero on the whole
    column range.
    """
    active = list(rows)
    pivots = []
    for col in range(col_start, col_stop):
        cand = [i for i, r in enumerate(active) if r[col] != 0]
        if not cand:
            continue
        while True:
            best = min(cand, key=lambda i: abs(int(active[i][col])))
            bv = active[best][col]
            if bv < 0:
                np.negative(active[best], out=active[best])
                bv = -bv
            if len(cand) == 1:
                break
            nxt = [best]
            prow = active[best]
            pslice = prow[col:]
            for i in cand:
                if i == best:
                    continue
                r = active[i]
                q = r[col] // bv
                if q:
                    r[col:] -= q * pslice
                    if gcd_rows and abs(r[col]) > _GROWTH_LIMIT:
                        g = _row_content(r)
                        if g > 1:
                            np.floor_divide(r, g, out=r)
                if r[col] != 0:
                    nxt.append(i)
            cand = nxt
            if len(cand) == 1:
                break
        prow = active[cand[0]]
        if gcd_rows:
            g = _row_content(prow)
            if g > 1:
                np.floor_divide(prow, g, out=prow)
        del active[cand[0]]
        pivots.append((col, prow))
    return pivots, active


def _reduce_above(pivots: list[tuple[int, np.ndarray]]) -> None:
    """Make entries above each pivot lie in [0, pivot); canonical HNF."""
    for k in range(1, len(pivots)):
        col, prow = pivots[k]
        pv = prow[col]
        for j in range(k):
            r = pivots[j][1]
            q = r[col] // pv
            if q:
                r[col:] -= q * prow[col:]


def _augmented(mat: IntMatrix) -> list[np.ndarray]:
    """Object rows of [A | I], the identity block recording row operations."""
    return list(np.hstack([mat.array.astype(object),
                           np.identity(mat.rows, dtype=object)]))


def hnf(A) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form H = U A with U unimodular.

    H has positive pivots, entries above each pivot reduced into
    [0, pivot), and zero rows at the bottom.
    """
    mat = _as_matrix(A)
    n, c = mat.rows, mat.cols
    pivots, rest = _echelon(_augmented(mat), 0, c)
    _reduce_above(pivots)
    ordered = np.array([p for _, p in pivots] + rest, dtype=object) \
        .reshape(n, c + n)
    return IntMatrix(ordered[:, :c]), IntMatrix(ordered[:, c:])


def hnf_basis(rows_or_mat) -> list[tuple[int, ...]]:
    """Canonical HNF basis of the lattice spanned by the given rows
    (zero rows dropped)."""
    rows, cols = _rows_of(rows_or_mat)
    pivots, _ = _echelon(rows, 0, cols)
    _reduce_above(pivots)
    return [tuple(p.tolist()) for _, p in pivots]


def _back_substitute(pivots: list[tuple[int, np.ndarray]], target: np.ndarray):
    """Write target as an integer combination of echelon rows.

    Returns the coefficient list or None when target is not in the row
    lattice.  target is consumed.
    """
    coeffs = []
    for col, prow in pivots:
        t = target[col]
        pv = prow[col]
        q, rem = divmod(int(t), int(pv))
        if rem:
            return None
        if q:
            target[col:] -= q * prow[col:]
        coeffs.append(q)
    if any(x != 0 for x in target.tolist()):
        return None
    return coeffs


def solve_left(A, b: Sequence[int]):
    """One integer solution x of x A = b, or None.

    A may be an IntMatrix or a row sequence.
    """
    mat = _as_matrix(A)
    n, cols = mat.rows, mat.cols
    pivots, _ = _echelon(_augmented(mat), 0, cols)
    t = np.array([int(x) for x in b], dtype=object)
    coeffs = _back_substitute([(c, p[:cols]) for c, p in pivots], t)
    if coeffs is None:
        return None
    x = [0] * n
    for q, (_, prow) in zip(coeffs, pivots):
        if q:
            for k in range(n):
                x[k] += q * int(prow[cols + k])
    return x


# ---------------------------------------------------------------------------
# Smith normal form

def _min_abs_position(M: np.ndarray, t: int):
    """Position of a minimal-|value| nonzero entry of M[t:, t:], or None."""
    block = M[t:, t:]
    if block.size == 0:
        return None
    try:
        a = np.abs(block.astype(float))
    except OverflowError:
        # entries beyond float range: exact elementwise scan
        a = np.frompyfunc(lambda x: float(min(abs(x), 1 << 1020)), 1, 1)(
            block).astype(float)
    a[a == 0.0] = np.inf
    flat = int(np.argmin(a))
    i, j = divmod(flat, block.shape[1])
    if block[i, j] == 0:
        return None
    return t + i, t + j


def _snf_core(M: np.ndarray, nrows: int, ncols: int,
              on_row: Callable | None, on_col: Callable | None) -> list[int]:
    """In-place Smith elimination; reports row/column operations through
    the optional callbacks so transforms can be accumulated."""

    def row_sub(i, j, q):  # row_i -= q * row_j
        M[i, :] -= q * M[j, :]
        if on_row:
            on_row("sub", i, j, q)

    def row_swap(i, j):
        M[[i, j], :] = M[[j, i], :]
        if on_row:
            on_row("swap", i, j, 0)

    def row_neg(i):
        np.negative(M[i, :], out=M[i, :])
        if on_row:
            on_row("neg", i, i, 0)

    def col_sub(i, j, q):  # col_i -= q * col_j
        M[:, i] -= q * M[:, j]
        if on_col:
            on_col("sub", i, j, q)

    def col_swap(i, j):
        M[:, [i, j]] = M[:, [j, i]]
        if on_col:
            on_col("swap", i, j, 0)

    diag = []
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        pos = _min_abs_position(M, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            # clear column t, re-pivoting on any smaller remainder
            moved = False
            for i in range(t + 1, nrows):
                v = M[i, t]
                if v:
                    q = v // M[t, t]
                    if q:
                        row_sub(i, t, q)
                    if M[i, t]:
                        row_swap(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, ncols):
                v = M[t, j]
                if v:
                    q = v // M[t, t]
                    if q:
                        col_sub(j, t, q)
                    if M[t, j]:
                        col_swap(t, j)
                        moved = True
            if moved:
                continue
            break
        if M[t, t] < 0:
            row_neg(t)
        # divisibility fix-up: pivot must divide every remaining entry
        pv = int(M[t, t])
        fixed = True
        if pv != 1 and t + 1 < nrows and t + 1 < ncols:
            rem = M[t + 1:, t + 1:] % pv
            bad_rows = np.nonzero(rem.any(axis=1))[0]
            if bad_rows.size:
                # add the offending row to row t, then re-eliminate
                row_sub(t, t + 1 + int(bad_rows[0]), -1)
                fixed = False
        if not fixed:
            continue
        diag.append(pv)
        t += 1
    return diag


def snf(A) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Smith normal form: returns (d, L, R) with L A R = diag(d),
    L and R unimodular, and d_1 | d_2 | ... nonnegative."""
    mat = _as_matrix(A)
    n, c = mat.rows, mat.cols
    M = mat.array.astype(object)
    L = np.identity(n, dtype=object)
    R = np.identity(c, dtype=object)

    def on_row(kind, i, j, q):
        if kind == "sub":
            L[i, :] -= q * L[j, :]
        elif kind == "swap":
            L[[i, j], :] = L[[j, i], :]
        else:
            np.negative(L[i, :], out=L[i, :])

    # column ops act on R from the right
    def on_col(kind, i, j, q):
        if kind == "sub":
            R[:, i] -= q * R[:, j]
        else:
            R[:, [i, j]] = R[:, [j, i]]

    diag = _snf_core(M, n, c, on_row, on_col)
    return diag, IntMatrix(L), IntMatrix(R)


def snf_invariants(A, verify: bool | None = None) -> list[int]:
    """Nonzero part of the Smith diagonal (no transforms kept).

    For large matrices an independent pass recomputes the invariant
    valuations at every prime dividing the result, by the layered
    elimination over Z/p^k, and raises LinalgError on disagreement.
    """
    mat = _as_matrix(A)
    diag = _snf_core(mat.array.astype(object), mat.rows, mat.cols, None, None)
    if verify is None:
        verify = max(mat.rows, mat.cols) > _VERIFY_DIM
    if verify and diag:
        for p in sorted(_prime_divisors(math.prod(d for d in diag if d))):
            want = [_val(d, p) for d in diag]
            got = _snf_local_valuations(mat, p, max(want))
            if got != want:
                raise LinalgError(
                    f"smith verification failed at p={p}: {got} != {want}")
    return diag


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


def _prime_divisors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


def _val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _layered_elimination(mat: IntMatrix, p: int, K: int) -> list[int]:
    """p-adic valuations below K of the invariant factors of mat, by
    elimination over Z/p^K, in ascending order.

    Layer v sweeps the columns once.  A column with an entry prime to p
    at or below the leading block takes that entry as pivot: its row is
    swapped into the leading block, scaled to pivot 1, and subtracted
    from the rows below that are nonzero in the column.  Each pivot is
    one invariant factor of valuation exactly v.  What remains outside
    the pivot rows and columns is then divisible by p; divided by p it
    is the next layer.  The rank over F_p is the pivot count at K = 1.
    """
    mod = p ** K
    # int64 needs the entries and the modulus to fit, and then products
    # of residues
    A = _promote(mat.array, max(_abs_max(mat.array), mod))
    M = _promote(A % mod, mod * mod)
    vals = []
    for layer in range(K):
        if not M.any():
            break
        mcur = p ** (K - layer)
        # in the last layer the columns already swept are 0 below the
        # leading block, so row updates can start at the pivot column
        last = mcur == p
        rows, cols = M.shape
        rank = 0
        pivoted = np.zeros(cols, dtype=bool)
        for col in range(cols):
            if rank == rows:
                break
            units = np.nonzero(M[rank:, col] % p)[0]
            if units.size == 0:
                continue
            i = rank + int(units[0])
            if i != rank:
                M[[rank, i]] = M[[i, rank]]
            start = col if last else 0
            inv = pow(int(M[rank, col]), -1, mcur)
            M[rank, start:] = M[rank, start:] * inv % mcur
            below = rank + 1 + np.nonzero(M[rank + 1:, col])[0]
            if below.size:
                M[below, start:] = (M[below, start:] - np.outer(
                    M[below, col], M[rank, start:])) % mcur
            pivoted[col] = True
            rank += 1
        vals += [layer] * rank
        M = M[rank:][:, ~pivoted] // p
    return vals


def _snf_local_valuations(mat: IntMatrix, p: int, vmax: int) -> list[int]:
    """p-adic valuations of the invariant factors, by the layered
    elimination over Z/p^K with K = vmax + 2.  Independent of the
    integer Smith elimination."""
    return _layered_elimination(mat, p, vmax + 2)


# ---------------------------------------------------------------------------
# abelian groups

@dataclass(frozen=True)
class AbGroup:
    """Finitely generated abelian group in invariant factor form.

    invariant_factors is (d_1, ..., d_k) with d_i | d_{i+1}, no d_i = 1,
    and 0 encoding an infinite cyclic factor (zeros come last).
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for d in self.invariant_factors:
            if d == 1 or d < 0:
                raise LinalgError(f"bad invariant factor {d}")
            if prev is not None and prev != 0:
                if d != 0 and d % prev:
                    raise LinalgError("invariant factors must form a divisor chain")
            if prev == 0 and d != 0:
                raise LinalgError("free factors must come last")
            prev = d

    @staticmethod
    def from_moduli(moduli: Iterable[int]) -> "AbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 = free)."""
        mods = [int(m) for m in moduli]
        if any(m < 0 for m in mods):
            raise LinalgError("negative modulus")
        n = len(mods)
        diag = [[mods[i] if i == j else 0 for j in range(n)] for i in range(n)]
        inv = snf_invariants(IntMatrix.from_rows(diag, n), verify=False)
        finite = tuple(d for d in inv if d > 1)
        rank = n - len(inv)
        return AbGroup(finite + (0,) * rank)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self):
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    @property
    def exponent(self) -> int:
        t = self.torsion
        return t[-1] if t else 1

    # element helpers for finite groups (tuples of residues)
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def scale(self, a, k: int) -> tuple[int, ...]:
        return tuple((x * k) % d for x, d in zip(a, self.invariant_factors))

    def reduce(self, a) -> tuple[int, ...]:
        return tuple(x % d for x, d in zip(a, self.invariant_factors))

    def element_order(self, a) -> int:
        return math.lcm(*(d // math.gcd(d, x) for x, d in zip(a, self.invariant_factors))) if a else 1

    def elements(self) -> list[tuple[int, ...]]:
        if not self.is_finite:
            raise LinalgError("cannot enumerate an infinite group")
        out = [()]
        for d in self.invariant_factors:
            out = [t + (x,) for t in out for x in range(d)]
        return out

    def index_of(self, a) -> int:
        idx = 0
        for x, d in zip(a, self.invariant_factors):
            idx = idx * d + (x % d)
        return idx

    # the same enumeration on int64 arrays, for vectorized index maps
    def coordinates(self) -> np.ndarray:
        """(order, k) int64 array of the elements, in elements() order."""
        if not self.is_finite:
            raise LinalgError("cannot enumerate an infinite group")
        k = len(self.invariant_factors)
        return np.indices(self.invariant_factors, dtype=np.int64) \
            .reshape(k, self.order).T

    def radix(self) -> np.ndarray:
        """Mixed-radix place values: index_of(a) == reduce(a) . radix()."""
        if not self.is_finite:
            raise LinalgError("an infinite group has no mixed-radix index")
        d = self.invariant_factors
        return np.array([math.prod(d[i + 1:]) for i in range(len(d))],
                        dtype=np.int64)

    def indices(self, *coords) -> np.ndarray:
        """index_of of the sum of int64 coordinate arrays (last axis the
        coordinate), broadcast together; one pass per invariant factor
        keeps the temporaries at the size of the result."""
        shape = np.broadcast_shapes(*(np.shape(c)[:-1] for c in coords))
        out = np.zeros(shape, dtype=np.int64)
        for i, (d, r) in enumerate(zip(self.invariant_factors,
                                       self.radix().tolist())):
            term = sum(np.asarray(c, dtype=np.int64)[..., i] for c in coords)
            term %= d
            term *= r
            out += term
        return out


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between finite abelian groups in invariant coordinates.

    matrix has one row per domain invariant; the image of x is x @ matrix
    reduced in the codomain.  Construction checks well-definedness:
    d_i * row_i must vanish in the codomain.
    """

    domain: AbGroup
    codomain: AbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        kd = len(self.domain.invariant_factors)
        kc = len(self.codomain.invariant_factors)
        if len(self.matrix) != kd or any(len(r) != kc for r in self.matrix):
            raise LinalgError("homomorphism matrix has wrong shape")
        for d, row in zip(self.domain.invariant_factors, self.matrix):
            for v, dc in zip(row, self.codomain.invariant_factors):
                if dc == 0:
                    if d != 0 and d * v != 0:
                        raise LinalgError("map not well defined on torsion")
                elif d != 0 and (d * v) % dc:
                    raise LinalgError("map not well defined")

    def apply(self, a) -> tuple[int, ...]:
        kc = len(self.codomain.invariant_factors)
        acc = [0] * kc
        for x, row in zip(a, self.matrix):
            if x:
                for j in range(kc):
                    acc[j] += x * row[j]
        return self.codomain.reduce(tuple(acc))

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other (other maps into self.domain)."""
        rows = [self.apply(row) for row in other.matrix]
        return AbHom(other.domain, self.codomain, tuple(tuple(r) for r in rows))

    def index_image(self) -> np.ndarray:
        """The map on mixed-radix indices: entry g is the codomain index
        of the image of the domain element of index g.  Computed once
        per homomorphism and read-only."""
        if "_index_image" not in self.__dict__:
            hom = np.array(self.matrix, dtype=np.int64).reshape(
                len(self.domain.invariant_factors),
                len(self.codomain.invariant_factors))
            image = self.codomain.indices(self.domain.coordinates() @ hom)
            image.flags.writeable = False
            object.__setattr__(self, "_index_image", image)
        return self.__dict__["_index_image"]


def _unit_prereduce(mat: IntMatrix) -> tuple[int, IntMatrix]:
    """Split off Smith pivots of absolute value 1 by exact Schur steps.

    Clearing the row and column of a +-1 entry with integer operations
    removes one invariant factor equal to 1 and leaves the Smith form of
    the complement unchanged.  Coset-indicator and presentation matrices
    are unit-rich, so this collapses most of the matrix before the cubic
    elimination runs.  Returns (unit pivot count, remaining matrix).
    """
    A = mat.array.copy()
    if A.size == 0:
        return 0, mat
    ones = 0
    while True:
        unit = np.abs(A) == 1
        if not unit.any():
            break
        nz = A != 0
        rn = nz.sum(axis=1)
        cn = nz.sum(axis=0)
        pos = np.argwhere(unit)
        score = (rn[pos[:, 0]] - 1) * (cn[pos[:, 1]] - 1)
        progressed = False
        for k in np.argsort(score, kind="stable"):
            i, j = int(pos[k, 0]), int(pos[k, 1])
            v = A[i, j]
            if v != 1 and v != -1:
                continue  # stale candidate, changed by an earlier pivot
            if A.dtype == np.int64:
                # the updated rows stay below this bound, the rest fit
                nzr = np.nonzero(A[:, j])[0]
                A = _promote(A, _abs_max(A[nzr, :]) + _abs_max(A[nzr, j])
                             * _abs_max(A[i, :]))
            row = A[i, :] * int(v)
            col = A[:, j].copy()
            nzr = np.nonzero(col)[0]
            A[nzr, :] -= np.outer(col[nzr], row)
            ones += 1
            progressed = True
        if not progressed:
            break
    keep_r = np.nonzero((A != 0).any(axis=1))[0]
    keep_c = np.nonzero((A != 0).any(axis=0))[0]
    return ones, IntMatrix(A[np.ix_(keep_r, keep_c)])


def cokernel(A, ambient_rank: int) -> AbGroup:
    """Structure of Z^ambient_rank / rowspace(A): _unit_prereduce
    splits off the unit pivots, the Smith elimination takes the rest."""
    mat = _as_matrix(A, ambient_rank)
    if mat.cols != ambient_rank:
        raise LinalgError("ambient rank does not match matrix width")
    ones, rest = _unit_prereduce(mat)
    inv = [1] * ones + snf_invariants(rest)
    finite = tuple(d for d in inv if d > 1)
    rank = ambient_rank - len(inv)
    return AbGroup(finite + (0,) * rank)


# ---------------------------------------------------------------------------
# kernels and subquotients

def rational_kernel(A) -> list[tuple[int, ...]]:
    """Saturated basis of {v integer : A v = 0}: the full integer
    kernel lattice of the rational kernel space, in canonical echelon
    form."""
    mat = _as_matrix(A)
    if mat.cols == 0:
        return []
    # augmented transpose trick: echelon [A^T | I]; rows whose A^T block
    # dies give exactly the kernel lattice in the right block.
    mat = IntMatrix(mat.array[mat.array.any(axis=1)])
    nr = mat.rows
    _, rest = _echelon(_augmented(mat.transpose()), 0, nr, gcd_rows=True)
    kpiv, kz = _echelon(rest, nr, nr + mat.cols)
    if any(any(x != 0 for x in r.tolist()) for r in kz):
        raise LinalgError("kernel echelon left a nonzero row unpivoted")
    _reduce_above(kpiv)
    return [tuple(r[nr:].tolist()) for _, r in kpiv]


def subquotient_torsion(kernel_basis, sub_rows) -> AbGroup:
    """Structure of rowspace(kernel_basis) / rowspace(sub_rows).

    Raises NotSubLattice when some sub row is outside the span of the
    kernel basis.  Free rank, if any, is reported through zero invariant
    factors.
    """
    krows, cols = _rows_of(kernel_basis)
    pivots, kz = _echelon(krows, 0, cols)
    if any(any(x != 0 for x in r.tolist()) for r in kz):
        raise LinalgError("kernel basis rows are dependent")
    _reduce_above(pivots)
    srows, scols = _rows_of(sub_rows)
    if srows and scols != cols:
        raise NotSubLattice("ambient dimensions differ")
    coords = []
    for r in srows:
        c = _back_substitute(pivots, r)
        if c is None:
            raise NotSubLattice("row outside the big lattice")
        coords.append(c)
    rank_k = len(pivots)
    return cokernel(IntMatrix.from_rows(coords, rank_k), rank_k)


def modular_rank(A, p: int = 2147483647) -> int:
    """Rank of A over the prime field F_p, by default p = 2^31 - 1.

    Always a lower bound for the rank over Q; when the result reaches
    min(rows, cols) the rational rank is certified equal.
    """
    if p < 2:
        raise LinalgError(f"{p} is not a prime")
    return len(_layered_elimination(_as_matrix(A), p, 1))


# ---------------------------------------------------------------------------
# black-box abelian structure

def _closure(mul: Callable, start: Iterable, gens: Sequence) -> set:
    """Everything reached from start by products with gens, breadth
    first: the subgroup that start and gens generate when start is the
    identity or a subgroup."""
    out = set(start)
    frontier = list(out)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = mul(e, g)
                if f not in out:
                    out.add(f)
                    nxt.append(f)
        frontier = nxt
    return out


def _harvest(order: int, perm_of: Callable[[int], np.ndarray],
             identity: int) -> list[int]:
    """Greedy generators of a group on the labels 0 .. order - 1.

    perm_of(x) is multiplication by the element of label x, as an array
    of labels.  A label joins, in increasing order, when it is outside
    the subgroup the earlier ones generate, until that subgroup is the
    whole group.  The subgroup is a mask that grows by whole cosets:
    with x joining H, the cosets H, xH, x^2 H, ... are added until one
    is already in.
    """
    span = np.zeros(order, dtype=bool)
    span[identity] = True
    gens = []
    while not span.all():
        x = int(np.argmin(span))  # the least label outside the span
        gens.append(x)
        perm = perm_of(x)
        coset = perm[np.flatnonzero(span)]
        while not span[coset[0]]:
            span[coset] = True
            coset = perm[coset]
    return gens


def _discover(order: int, perms: Sequence[np.ndarray], identity: int):
    """Structure and discrete logarithm of a group on integer labels.

    perms[i] is multiplication by the i-th generator, as an array of
    labels.  A breadth-first search from identity records each label's
    first word in the generators, generator by generator in the order
    given; the differences of words along every generator edge are the
    relations, and their Smith form gives the invariant factors and the
    coordinates.  Returns (AbGroup, bfs, coords): bfs lists the labels
    in the order the search found them, coords[label] their invariant
    coordinates.
    """
    k = len(perms)
    size = len(perms[0]) if k else identity + 1
    P = np.array(perms, dtype=np.int64).reshape(k, size)
    # a FIFO queue visits the elements level by level, each level in
    # the order its parents were found and, per parent, generator by
    # generator; an element keeps the word of its first visit
    word = [None] * size
    word[identity] = (0,) * k
    bfs = [identity]
    steps = P.tolist()
    for e in bfs:  # grows while it is walked
        w = word[e]
        for i, step in enumerate(steps):
            f = step[e]
            if word[f] is None:
                word[f] = w[:i] + (w[i] + 1,) + w[i + 1:]
                bfs.append(f)
    bfs = np.array(bfs, dtype=np.int64)
    if len(bfs) < order:
        raise GeneratorsInsufficient(
            f"generators span {len(bfs)} of {order} elements")
    if len(bfs) > order:
        raise LinalgError("closure exceeds declared order")
    if k == 0:
        return AbGroup(()), bfs, np.zeros((size, 0), dtype=np.int64)
    words = np.zeros((size, k), dtype=np.int64)
    words[bfs] = [word[e] for e in bfs.tolist()]
    # row (e, i): word(e) + e_i - word(e g_i)
    rel = (words[bfs][None, :, :] + np.eye(k, dtype=np.int64)[:, None, :]
           - words[P[:, bfs]]).reshape(-1, k)
    # the distinct nonzero rows, sorted as tuples
    rel = rel[rel.any(axis=1)]
    rel = rel[np.lexsort(rel.T[::-1])]
    first = np.ones(len(rel), dtype=bool)
    first[1:] = (rel[1:] != rel[:-1]).any(axis=1)
    rel = rel[first]
    diag, _, R = snf(IntMatrix(rel))
    if len(diag) != k or any(d == 0 for d in diag):
        raise LinalgError("black-box group is not finite as presented")
    kept = [i for i, d in enumerate(diag) if d > 1]
    group = AbGroup(tuple(diag[i] for i in kept))
    if (group.order or 1) != order:
        raise LinalgError("relation lattice volume does not match order")
    Rk = R.array[:, kept]
    bound = _abs_max(words) * _abs_max(Rk) * k
    full = _promote(words, bound) @ _promote(Rk, bound)
    mods = np.array(group.invariant_factors, dtype=np.int64)
    return group, bfs, (full % mods).astype(np.int64)


def ab_discover(order: int, mul: Callable, gens: Sequence, identity=None):
    """Structure and discrete logarithm of a finite abelian black box.

    order is the known group order, mul the product map, gens a
    generating list of hashable elements.  Returns (AbGroup, dlog) where
    dlog maps every element to its tuple of coordinates in the invariant
    factor decomposition, in breadth-first order from the identity.
    Raises GeneratorsInsufficient when the closure of gens has fewer
    than order elements.  The identity is located by cycling the first
    generator when not supplied.

    The elements are labelled once, in breadth-first order, calling mul
    once per element and generator; _discover does the rest on the
    labels.
    """
    if identity is None:
        if not gens:
            raise LinalgError("cannot locate identity without generators")
        g = gens[0]
        seen = {g}
        prev, cur = g, mul(g, g)
        while cur != g:
            if cur in seen:
                raise LinalgError("generator powers do not cycle back; "
                                  "element labels are not canonical")
            seen.add(cur)
            prev, cur = cur, mul(cur, g)
        identity = prev
    label = {identity: 0}
    elements = [identity]
    perms = [[] for _ in gens]
    for e in elements:  # grows while it is walked: a breadth-first queue
        for perm, g in zip(perms, gens):
            f = mul(e, g)
            if f not in label:
                if len(elements) == order:
                    raise LinalgError("closure exceeds declared order")
                label[f] = len(elements)
                elements.append(f)
            perm.append(label[f])
    group, bfs, coords = _discover(order, perms, 0)
    return group, dict(zip([elements[i] for i in bfs.tolist()],
                           map(tuple, coords[bfs].tolist())))
