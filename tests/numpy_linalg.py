"""Reference linear algebra on numpy arrays.

ordist.zlinalg held its matrices as numpy arrays until it moved onto
tuples of Python ints: int64 while every entry fit, object arrays of
Python ints otherwise, chosen by _promote.  The tests keep that code
here as the reference of the differential tests of the list code: the
echelon pass with rational_kernel and subquotient_torsion on it, and
the Smith elimination with smith_coordinates and the invariant factors
on it.  It is unchanged, apart from reading the package's IntMatrix and
CSRMatrix through their entries and subquotient_torsion ending in the
Smith elimination here instead of the package's cokernel.

The package has no echelon pass of its own any more: its kernels, left
solves and subquotients read the Smith column transform.  So the
echelon pass here is also the reference that those are compared with,
through the canonical Hermite basis of a kernel, and through
_back_substitute for membership in a row lattice; hnf_reference builds
hnf and hnf_basis on _echelon, _reduce_above, _augmented and
_object_rows.  The other array references of the tests
(dense_transform, dense_prereduce, tuple_presentation) build their
arrays with _promote, dense, coordinates and indices.
"""

from __future__ import annotations

import math

import numpy as np

from ordist.zlinalg import (
    AbGroup,
    CSRMatrix,
    IntMatrix,
    LinalgError,
    NotSubLattice,
)

# int64 holds exactly the integers of absolute value below 2^63
_INT64_BOUND = 1 << 63


def _abs_max(a: np.ndarray) -> int:
    """Largest absolute entry as a Python int, 0 when a is empty."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _promote(a: np.ndarray, bound: int | None = None) -> np.ndarray:
    """The int64/object choice of the array code.

    bound caps the absolute value of every entry the caller holds in the
    array, now and after the arithmetic it is about to do; it defaults
    to the largest entry.  Below 2^63 the array comes back as int64,
    otherwise as an object array of Python ints (a itself when it
    already has that dtype).
    """
    a = np.asarray(a)
    if bound is None:
        bound = _abs_max(a) if a.dtype.kind in "iuO" else 0
    return a.astype(np.int64 if bound < _INT64_BOUND else object, copy=False)


def dense(A, cols: int | None = None) -> np.ndarray:
    """The array of an IntMatrix, a CSRMatrix or int rows: int64 when
    every entry fits, object otherwise."""
    if isinstance(A, CSRMatrix):
        a = np.zeros((A.rows, A.cols), dtype=object)
        a[np.repeat(np.arange(A.rows), np.diff(A.indptr)),
          np.asarray(A.indices, dtype=np.int64)] = A.data
        return _promote(a)
    if isinstance(A, IntMatrix):
        rows, cols = A.entries, A.cols
    else:
        rows = [[int(x) for x in r] for r in A]
        if cols is None:
            cols = len(rows[0]) if rows else 0
    return _promote(np.array(rows, dtype=object).reshape(len(rows), cols))


def _object_rows(A) -> tuple[list[np.ndarray], int]:
    """Writable object rows of a matrix or row sequence, and its width."""
    a = dense(A)
    return list(a.astype(object)), a.shape[1]


# ---------------------------------------------------------------------------
# echelon core

_GROWTH_LIMIT = 1 << 96


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


def _augmented(a: np.ndarray) -> list[np.ndarray]:
    """Object rows of [A | I], the identity block recording row operations."""
    return list(np.hstack([a.astype(object),
                           np.identity(a.shape[0], dtype=object)]))


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


def rational_kernel(A) -> list[tuple[int, ...]]:
    """Saturated basis of {v integer : A v = 0}: the full integer
    kernel lattice of the rational kernel space, in canonical echelon
    form."""
    a = dense(A)
    if a.shape[1] == 0:
        return []
    # augmented transpose trick: echelon [A^T | I]; rows whose A^T block
    # dies give exactly the kernel lattice in the right block.
    a = a[a.any(axis=1)]
    nr = a.shape[0]
    _, rest = _echelon(_augmented(a.T), 0, nr, gcd_rows=True)
    kpiv, kz = _echelon(rest, nr, nr + a.shape[1])
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
    krows, cols = _object_rows(kernel_basis)
    pivots, kz = _echelon(krows, 0, cols)
    if any(any(x != 0 for x in r.tolist()) for r in kz):
        raise LinalgError("kernel basis rows are dependent")
    _reduce_above(pivots)
    srows, scols = _object_rows(sub_rows)
    if srows and scols != cols:
        raise NotSubLattice("ambient dimensions differ")
    coords = []
    for r in srows:
        c = _back_substitute(pivots, r)
        if c is None:
            raise NotSubLattice("row outside the big lattice")
        coords.append(c)
    rank_k = len(pivots)
    inv = snf_invariants(dense(coords, rank_k))
    return AbGroup(tuple(d for d in inv if d > 1)
                   + (0,) * (rank_k - len(inv)))


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


def snf_invariants(A) -> list[int]:
    """Nonzero part of the Smith diagonal (no transforms kept)."""
    return _snf_core(dense(A).astype(object))


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
    M = dense(A, ambient).astype(object)
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


# ---------------------------------------------------------------------------
# group elements as int64 arrays

def coordinates(group: AbGroup) -> np.ndarray:
    """(order, k) int64 array of the elements, in elements() order."""
    return np.array(group.coordinates(), dtype=np.int64).reshape(
        group.order, len(group.invariant_factors))


def indices(group: AbGroup, *coords) -> np.ndarray:
    """index_of of the sum of int64 coordinate arrays (last axis the
    coordinate), broadcast together; one pass per invariant factor
    keeps the temporaries at the size of the result."""
    shape = np.broadcast_shapes(*(np.shape(c)[:-1] for c in coords))
    out = np.zeros(shape, dtype=np.int64)
    for i, (d, r) in enumerate(zip(group.invariant_factors, group.radix())):
        term = sum(np.asarray(c, dtype=np.int64)[..., i] for c in coords)
        term %= d
        term *= r
        out += term
    return out
