"""Exact linear algebra over the integers.

No floating point enters any result.  A matrix is one read-only numpy
array: int64 while every entry fits, an object array of Python ints
otherwise.  One helper, _promote, makes that choice from a bound on the
entries, both when a matrix is built and before every int64 computation
whose results could outgrow it.  Lattices are row spaces of integer
matrices.  Finitely generated abelian groups are cokernels
Z^n / rowspace(R), described by invariant factors d_1 | d_2 | ... (0
encodes an infinite cyclic factor, factors equal to 1 are dropped).

Sparse rows come as a CSRMatrix.  A cokernel first splits off its unit
pivots by one sparse Schur pass on Python ints, then takes the Smith form
of the dense residual.

The workhorse is a row echelon pass with minimal-absolute-value pivoting
and repeated Euclidean reduction on object rows, used for Hermite-reduced
kernels, subquotients and left solves.  Smith forms use alternating row
and column elimination with a divisibility fix-up.  smith_coordinates reads a
quotient Z^n / rowspace(A) in invariant coordinates: the same pass
applies each column operation to the transform R and its inverse row
operation to R^-1, and the columns of R and rows of R^-1 at the factors
other than 1 map into the coordinates and back.  A separate sparse
elimination over Z/p^K gives the p-adic valuations of the invariant
factors; for large inputs it independently re-verifies the Smith form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import OrdistError


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


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """Immutable integer matrix in compressed sparse row form.

    Row i has the entries data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]], ascending; no stored entry is 0,
    so equal matrices have equal arrays.  indptr and indices are int64,
    data int64 or object as for IntMatrix.  The constructor takes
    ownership of the arrays it is given and freezes them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    cols: int

    def __post_init__(self):
        ptr = np.asarray(self.indptr, dtype=np.int64)
        idx = np.asarray(self.indices, dtype=np.int64)
        val = _promote(np.asarray(self.data))
        if ptr.ndim != 1 or len(ptr) == 0 or ptr[0] != 0 \
                or (np.diff(ptr) < 0).any() or ptr[-1] != len(idx) \
                or val.shape != idx.shape:
            raise LinalgError("inconsistent sparse row pointers")
        # within a row the columns ascend; a row start may step back
        starts = np.zeros(len(idx), dtype=bool)
        starts[ptr[:-1][ptr[:-1] < len(idx)]] = True
        if ((idx < 0) | (idx >= self.cols)).any() \
                or ((np.diff(idx) <= 0) & ~starts[1:]).any() \
                or not val.all():
            raise LinalgError("bad sparse row entries")
        for a, name in ((ptr, "indptr"), (idx, "indices"), (val, "data")):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @staticmethod
    def from_dense(a: np.ndarray) -> "CSRMatrix":
        """The nonzeros of a 2-D integer array."""
        r, c = np.nonzero(a)
        return CSRMatrix(np.searchsorted(r, np.arange(a.shape[0] + 1)),
                         c, a[r, c], a.shape[1])

    @staticmethod
    def from_triplets(rows: int, cols: int, r, c, v) -> "CSRMatrix":
        """The rows x cols matrix with v[k] added at (r[k], c[k]):
        repeated positions are summed, and sums of 0 are not stored."""
        key = np.asarray(r, dtype=np.int64) * cols \
            + np.asarray(c, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key, val = key[order], np.asarray(v)[order]
        if key.size:
            first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, val = key[first], np.add.reduceat(val, first)
        keep = val != 0
        r, c = np.divmod(key[keep], max(cols, 1))
        return CSRMatrix(np.searchsorted(r, np.arange(rows + 1)), c,
                         val[keep], cols)

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    def dot(self, v) -> np.ndarray:
        """The exact product with an integer vector, one entry per row."""
        v = np.asarray(v)
        if v.shape != (self.cols,):
            raise LinalgError("vector length does not match matrix width")
        bound = (_abs_max(self.data) + 1) * (_abs_max(v) + 1) * self.cols
        terms = _promote(self.data, bound) * _promote(v, bound)[self.indices]
        out = np.zeros(self.rows, dtype=terms.dtype)
        np.add.at(out, np.repeat(np.arange(self.rows), np.diff(self.indptr)),
                  terms)
        return out

    @property
    def array(self) -> np.ndarray:
        """The dense array, built on each read."""
        out = np.zeros((self.rows, self.cols), dtype=self.data.dtype)
        out[np.repeat(np.arange(self.rows), np.diff(self.indptr)),
            self.indices] = self.data
        return out

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows as tuples of Python ints."""
        return tuple(map(tuple, self.array.tolist()))

    def to_text(self) -> str:
        """IntMatrix.to_text of the dense matrix, one dense row at a
        time."""
        lines = [f"{self.rows} {self.cols}"]
        row = np.zeros(self.cols, dtype=self.data.dtype)
        for i in range(self.rows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            row[self.indices[lo:hi]] = self.data[lo:hi]
            lines.append(" ".join(map(str, row.tolist())))
            row[self.indices[lo:hi]] = 0
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return self.cols == other.cols \
            and np.array_equal(self.indptr, other.indptr) \
            and np.array_equal(self.indices, other.indices) \
            and np.array_equal(self.data, other.data)


def _as_matrix(A, cols: int | None = None) -> IntMatrix:
    """A itself, the dense form of a CSRMatrix, or the matrix of a
    sequence of int rows."""
    if isinstance(A, CSRMatrix):
        return IntMatrix(A.array)
    return A if isinstance(A, IntMatrix) else IntMatrix.from_rows(A, cols)


def _as_sparse(A, cols: int | None = None) -> CSRMatrix:
    """A itself, or the nonzeros of a dense matrix or row sequence."""
    if isinstance(A, CSRMatrix):
        return A
    return CSRMatrix.from_dense(_as_matrix(A, cols).array)


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


def _snf_core(M: np.ndarray, R: np.ndarray | None = None,
              R_inv: np.ndarray | None = None) -> list[int]:
    """In-place Smith elimination of the object array M.

    When R and R_inv are given (both starting as the identity on the
    columns), each column operation is applied to the columns of R and
    its inverse to the rows of R_inv, so that R @ R_inv stays the
    identity.
    """
    nrows, ncols = M.shape

    def row_sub(i, j, q):  # row_i -= q * row_j
        M[i, :] -= q * M[j, :]

    def row_swap(i, j):
        M[[i, j], :] = M[[j, i], :]

    def col_sub(i, j, q):  # col_i -= q * col_j
        M[:, i] -= q * M[:, j]
        if R is not None:
            R[:, i] -= q * R[:, j]
            R_inv[j, :] += q * R_inv[i, :]

    def col_swap(i, j):
        M[:, [i, j]] = M[:, [j, i]]
        if R is not None:
            R[:, [i, j]] = R[:, [j, i]]
            R_inv[[i, j], :] = R_inv[[j, i], :]

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
            np.negative(M[t, :], out=M[t, :])
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


def smith_coordinates(A, ambient: int
                      ) -> tuple[AbGroup, np.ndarray, np.ndarray]:
    """Z^ambient / rowspace(A) in invariant coordinates.

    Returns (group, to, back).  x @ to, reduced mod the invariant
    factors of group (exact on the free ones), are the coordinates of
    the class of x in Z^ambient; c @ back lifts coordinates c back to
    Z^ambient.  to holds the columns of the Smith column transform R at
    the factors other than 1 and at the free factors, back the same rows
    of R^-1.  R^-1 is built in the same pass, and R @ R^-1 = I is
    checked: LinalgError otherwise.  to and back are int64 when every
    entry fits, object arrays otherwise.
    """
    M = _as_matrix(A, ambient).array.astype(object)
    if M.shape[1] != ambient:
        raise LinalgError(
            f"relations have {M.shape[1]} columns, not {ambient}")
    R = np.identity(ambient, dtype=object)
    R_inv = np.identity(ambient, dtype=object)
    diag = _snf_core(M, R, R_inv)
    bound = ambient * _abs_max(R) * _abs_max(R_inv)
    if not np.array_equal(_promote(R, bound) @ _promote(R_inv, bound),
                          np.identity(ambient, dtype=np.int64)):
        raise LinalgError("Smith column transform is not unimodular")
    diag += [0] * (ambient - len(diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    group = AbGroup(tuple(diag[i] for i in keep))
    return group, _promote(R[:, keep]), _promote(R_inv[keep])


def _reduced_product(X: np.ndarray, Y: np.ndarray, inv) -> np.ndarray:
    """X @ Y with column k reduced mod the invariant factor inv[k] and
    kept exact where inv[k] = 0.  Reducing the columns of Y mod the same
    factors first does not change the result."""
    bound = X.shape[1] * (_abs_max(X) + 1) * (_abs_max(Y) + 1)
    Z = _promote(X, bound) @ _promote(Y, bound)
    for k, d in enumerate(inv):
        if d:
            Z[:, k] %= d
    return _promote(Z)


def snf_invariants(A, verify: bool | None = None) -> list[int]:
    """Nonzero part of the Smith diagonal (no transforms kept).

    For large matrices an independent pass recomputes the invariant
    valuations at every prime dividing the result, by the sparse
    elimination over Z/p^k, and raises LinalgError on disagreement.
    """
    mat = _as_matrix(A)
    diag = _snf_core(mat.array.astype(object))
    if verify is None:
        verify = max(mat.rows, mat.cols) > _VERIFY_DIM
    if verify and diag:
        for p in sorted(_prime_divisors(math.prod(d for d in diag if d))):
            want = [_val(d, p) for d in diag]
            got = _local_valuations(_as_sparse(mat), p, max(want) + 2)
            if got != want:
                raise LinalgError(
                    f"smith verification failed at p={p}: {got} != {want}")
    return diag


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


def _local_valuations(A: CSRMatrix, p: int, K: int) -> list[int]:
    """p-adic valuations below K of the invariant factors of A, in
    ascending order, by sparse elimination over Z/p^K.

    The pass shares no code with _unit_prereduce or the Smith
    elimination: it reads the arrays of A itself into one dict per row,
    from column to residue mod p^K, and keeps for each column the set of
    rows nonzero in it.  Layer v works mod p^(K - v), in rounds.  A round
    offers from each row its unit mod p in the column with fewest rows,
    sorts these by (row nonzeros - 1) * (column nonzeros - 1) and takes
    them in that order, skipping the rows that an earlier pivot of the
    round changed.  A pivot clears its column from the other rows (the
    Schur update mod p^(K - v)) and leaves with its row and column: one
    invariant factor of valuation exactly v.  Once no unit is left,
    every residue is divisible by p; divided by p they are the next
    layer.  The rank over F_p is the pivot count at K = 1.
    """
    mod = p ** K
    ptr, idx, val = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    rows, at = {}, {}
    for i, (s, e) in enumerate(zip(ptr, ptr[1:])):
        row = {c: x % mod for c, x in zip(idx[s:e], val[s:e]) if x % mod}
        if row:
            rows[i] = row
            for c in row:
                at.setdefault(c, set()).add(i)
    vals = []
    for v in range(K):
        m = mod // p ** v
        while rows:
            cand = []
            for i, row in rows.items():
                units = [(len(at[c]), c) for c, x in row.items() if x % p]
                if units:
                    n, c = min(units)
                    cand.append(((len(row) - 1) * (n - 1), i, c))
            if not cand:
                break
            cand.sort()
            changed = set()
            for _, i, c in cand:
                if i in changed:
                    continue
                prow = rows.pop(i)
                changed.add(i)
                for c2 in prow:
                    at[c2].discard(i)
                inv = pow(prow.pop(c), -1, m)
                for r in at.pop(c):
                    row = rows[r]
                    get = row.get
                    f = row.pop(c) * inv % m
                    for c2, x in prow.items():
                        y = (get(c2, 0) - f * x) % m
                        if y:
                            row[c2] = y
                            at[c2].add(r)
                        elif c2 in row:
                            del row[c2]
                            at[c2].discard(r)
                    if not row:
                        del rows[r]
                    changed.add(r)
                vals.append(v)
        for row in rows.values():
            for c in row:
                row[c] //= p
    return vals


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

    @cached_property
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
        """(order, k) int64 array of the elements, in elements() order.
        Computed once per group and read-only."""
        if "_coordinates" not in self.__dict__:
            if not self.is_finite:
                raise LinalgError("cannot enumerate an infinite group")
            k = len(self.invariant_factors)
            coords = np.indices(self.invariant_factors, dtype=np.int64) \
                .reshape(k, self.order).T
            coords.flags.writeable = False
            object.__setattr__(self, "_coordinates", coords)
        return self.__dict__["_coordinates"]

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


def _unit_prereduce(mat) -> tuple[int, IntMatrix]:
    """Split off Smith pivots of absolute value 1 by exact Schur steps.

    Clearing the column of a +-1 entry from the other rows with integer
    row operations, then dropping its row and column, removes one
    invariant factor equal to 1 and leaves the Smith form of the
    complement unchanged.  Coset-indicator and presentation matrices
    are unit-rich, so this collapses most of the matrix before the cubic
    elimination runs.

    The pass reads only the nonzeros of mat (an IntMatrix, a CSRMatrix
    or int rows): each row is a dict from column to Python int, and
    each column keeps the set of rows nonzero in it.  It works in
    rounds.  A round lists the +-1 entries by Markowitz score (row
    nonzeros - 1) * (column nonzeros - 1) and takes them in that order,
    skipping an entry whose row an earlier pivot of the round updated or
    whose column lies in the support of an earlier pivot row, since
    those are the rows and columns the earlier pivots changed.  Returns
    (unit pivot count, the remaining nonzero rows and columns as a dense
    matrix).
    """
    sp = _as_sparse(mat)
    ptr, idx, val = sp.indptr.tolist(), sp.indices.tolist(), sp.data.tolist()
    rows = {}
    at = [set() for _ in range(sp.cols)]  # the rows nonzero in each column
    for i, (s, e) in enumerate(zip(ptr, ptr[1:])):
        if s < e:
            rows[i] = dict(zip(idx[s:e], val[s:e]))
            for c in idx[s:e]:
                at[c].add(i)
    n, w = sp.rows, sp.cols
    ones = 0
    while True:
        # one int per candidate sorts faster than tuples: score, row, column
        cand = []
        for i, row in rows.items():
            rn = len(row) - 1
            cand += [(rn * (len(at[j]) - 1) * n + i) * w + j
                     for j, v in row.items() if v == 1 or v == -1]
        if not cand:
            break
        cand.sort()
        hit_rows, hit_cols = set(), set()
        for key in cand:
            key, j = divmod(key, w)
            i = key % n
            if i in hit_rows or j in hit_cols:
                continue
            prow = rows.pop(i)
            v = prow[j]
            for c in prow:
                at[c].discard(i)
            hit_rows.add(i)
            hit_cols.update(prow)
            for r in list(at[j]):
                row = rows[r]
                get = row.get
                f = row[j] * v  # v is its own inverse
                for c, x in prow.items():
                    y = get(c, 0) - f * x
                    if y:
                        if c not in row:
                            at[c].add(r)
                        row[c] = y
                    else:
                        del row[c]
                        at[c].discard(r)
                if not row:
                    del rows[r]
                hit_rows.add(r)
            ones += 1
    keep = sorted(rows)
    kept = [c for c in range(sp.cols) if at[c]]
    pos = {c: k for k, c in enumerate(kept)}
    rest = np.zeros((len(keep), len(kept)), dtype=object)
    for k, i in enumerate(keep):
        for c, x in rows[i].items():
            rest[k, pos[c]] = x
    return ones, IntMatrix(rest)


def cokernel(A, ambient_rank: int) -> AbGroup:
    """Structure of Z^ambient_rank / rowspace(A): _unit_prereduce
    splits off the unit pivots, the Smith elimination takes the rest."""
    mat = _as_sparse(A, ambient_rank)
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


# ---------------------------------------------------------------------------
# black-box abelian structure

def _grow(span: np.ndarray, perm: np.ndarray) -> None:
    """Grow the boolean mask span of a subgroup H, in place, to the
    subgroup that H and x generate, where perm is multiplication by x
    on the labels: the cosets H, xH, x^2 H, ... are added until one is
    already in."""
    coset = perm[np.flatnonzero(span)]
    while not span[coset[0]]:
        span[coset] = True
        coset = perm[coset]


def _harvest(order: int, perm_of: Callable[[int], np.ndarray],
             identity: int) -> list[int]:
    """Greedy generators of a group on the labels 0 .. order - 1.

    perm_of(x) is multiplication by the element of label x, as an array
    of labels.  A label joins, in increasing order, when it is outside
    the subgroup the earlier ones generate, until that subgroup is the
    whole group.  The subgroup is a mask that _grow extends by whole
    cosets.
    """
    span = np.zeros(order, dtype=bool)
    span[identity] = True
    gens = []
    while not span.all():
        x = int(np.argmin(span))  # the least label outside the span
        gens.append(x)
        _grow(span, perm_of(x))
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
    group, to, _ = smith_coordinates(IntMatrix(rel), k)
    if not group.is_finite:
        raise LinalgError("black-box group is not finite as presented")
    if group.order != order:
        raise LinalgError("relation lattice volume does not match order")
    coords = _reduced_product(words, to, group.invariant_factors)
    return group, bfs, coords.astype(np.int64)


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
