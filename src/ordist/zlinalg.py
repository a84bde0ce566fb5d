"""Exact linear algebra over the integers.

No floating point enters any result, and every entry is a Python int.
A dense matrix is a tuple of row tuples (IntMatrix), a sparse one three
int tuples in compressed row form (CSRMatrix).  Lattices are row spaces
of integer matrices.  Finitely generated abelian groups are cokernels
Z^n / rowspace(R), described by invariant factors d_1 | d_2 | ... (0
encodes an infinite cyclic factor, factors equal to 1 are dropped).  The
elements of a finite group are numbered by mixed-radix indices, and its
translations and homomorphisms act on them as index lists.

A cokernel first splits off its unit pivots by one sparse Schur pass,
then takes the Smith form of the dense residual.

One dense elimination carries everything else: the Smith form, by
alternating row and column elimination with a divisibility fix-up.
smith_coordinates reads a quotient Z^n / rowspace(A) in invariant
coordinates: the same pass applies each column operation to the
transform R and its inverse row operation to R^-1, and the columns of R
and rows of R^-1 at the factors other than 1 map into the coordinates
and back.  The columns of R at the free factors are a saturated kernel
basis, and left solves and subquotients read their coordinates off such
kernels.  A separate sparse elimination over Z/p^K gives the p-adic
valuations of the invariant factors; for large inputs it independently
re-verifies the Smith form.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import cached_property
from operator import index

from . import OrdistError, _Frozen
from .quadfield import _xgcd


class LinalgError(OrdistError):
    pass


class NotSubLattice(LinalgError):
    """Raised when a claimed sublattice has a vector outside the big lattice."""


class GeneratorsInsufficient(LinalgError):
    """Raised when black-box generators do not generate the whole group."""


# ---------------------------------------------------------------------------
# matrices

def _ints(seq) -> tuple[int, ...]:
    """seq as a tuple of Python ints; LinalgError on any other entry."""
    try:
        return tuple(map(index, seq))
    except TypeError:
        raise LinalgError("matrix entries must be integers") from None


class IntMatrix(_Frozen):
    """Immutable integer matrix: entries is the tuple of its rows, each a
    tuple of Python ints.  cols defaults to the length of the first row
    (0 without rows)."""

    _fields = ("cols", "entries")

    def __init__(self, entries: tuple[tuple[int, ...], ...],
                 cols: int | None = None):
        rows = tuple(map(_ints, entries))
        cols = len(rows[0]) if cols is None and rows else cols or 0
        if cols < 0:
            raise LinalgError("negative matrix dimensions")
        if any(len(r) != cols for r in rows):
            raise LinalgError("column count mismatch")
        self.__dict__.update(entries=rows, cols=cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        return IntMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(_identity_rows(n), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        if rows < 0:
            raise LinalgError("negative matrix dimensions")
        return IntMatrix(((0,) * cols,) * rows, cols)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) or ((),) * self.cols,
                         self.rows)


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class CSRMatrix(_Frozen):
    """Immutable integer matrix in compressed sparse row form.

    Row i has the entries data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]], ascending; no stored entry is 0,
    so equal matrices have equal tuples.  The constructor stores the
    three sequences as tuples of Python ints and checks them.
    """

    _fields = ("cols", "indptr", "indices", "data")
    __hash__ = None

    def __init__(self, indptr: tuple[int, ...], indices: tuple[int, ...],
                 data: tuple[int, ...], cols: int):
        ptr, idx, val = map(_ints, (indptr, indices, data))
        if cols < 0:
            raise LinalgError("negative matrix dimensions")
        if not ptr or ptr[0] != 0 or ptr[-1] != len(idx) \
                or len(val) != len(idx) \
                or any(a > b for a, b in zip(ptr, ptr[1:])):
            raise LinalgError("inconsistent sparse row pointers")
        # within a row the columns ascend; a row start may step back
        descents = {k for k, (a, b) in enumerate(zip(idx, idx[1:]), 1)
                    if b <= a}
        if idx and (min(idx) < 0 or max(idx) >= cols) \
                or not descents <= set(ptr) or not all(val):
            raise LinalgError("bad sparse row entries")
        self.__dict__.update(indptr=ptr, indices=idx, data=val, cols=cols)

    @staticmethod
    def from_dense(rows, cols: int | None = None) -> "CSRMatrix":
        """The nonzeros of a sequence of int rows, cols wide (by default
        the length of the first row)."""
        ptr, idx, val = [0], [], []
        for r in rows:
            for j, x in enumerate(r):
                if x:
                    idx.append(j)
                    val.append(x)
            ptr.append(len(idx))
        if cols is None:
            cols = len(rows[0]) if len(rows) else 0
        return CSRMatrix(ptr, idx, val, cols)

    @staticmethod
    def from_triplets(rows: int, cols: int, r, c, v) -> "CSRMatrix":
        """The rows x cols matrix with v[k] added at (r[k], c[k]):
        repeated positions are summed, and sums of 0 are not stored."""
        acc = [{} for _ in range(rows)]
        for i, j, x in zip(r, c, v):
            row = acc[i]
            row[j] = row.get(j, 0) + x
        ptr, idx, val = [0], [], []
        for row in acc:
            for j in sorted(row):
                if row[j]:
                    idx.append(j)
                    val.append(row[j])
            ptr.append(len(idx))
        return CSRMatrix(ptr, idx, val, cols)

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    def _row_items(self):
        """(columns, values) of each row, as tuple slices."""
        ptr, idx, val = self.indptr, self.indices, self.data
        for s, e in zip(ptr, ptr[1:]):
            yield idx[s:e], val[s:e]

    def dot(self, v) -> list[int]:
        """The exact product with an integer vector, one entry per row."""
        v = _ints(v)
        if len(v) != self.cols:
            raise LinalgError("vector length does not match matrix width")
        return [sum(x * v[j] for j, x in zip(cs, xs))
                for cs, xs in self._row_items()]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows as tuples of Python ints."""
        return tuple(map(tuple, self._dense_rows()))

    def _dense_rows(self):
        """Each dense row as a list, built one at a time."""
        for cs, xs in self._row_items():
            row = [0] * self.cols
            for j, x in zip(cs, xs):
                row[j] = x
            yield row


def _as_matrix(A, cols: int | None = None) -> IntMatrix:
    """A itself, the dense form of a CSRMatrix, or the matrix of a
    sequence of int rows."""
    if isinstance(A, CSRMatrix):
        return IntMatrix(A.entries, A.cols)
    return A if isinstance(A, IntMatrix) else IntMatrix(A, cols)


def _as_sparse(A, cols: int | None = None) -> CSRMatrix:
    """A itself, or the nonzeros of a dense matrix or row sequence."""
    if isinstance(A, CSRMatrix):
        return A
    mat = _as_matrix(A, cols)
    return CSRMatrix.from_dense(mat.entries, mat.cols)


def _reduced_product(X, Y, inv) -> tuple[tuple[int, ...], ...]:
    """The rows of X @ Y with column k reduced mod the invariant factor
    inv[k] and kept exact where inv[k] = 0.  Reducing the columns of Y
    mod the same factors first does not change the result.  Row i sums
    the rows of Y at the nonzeros of row i of X."""
    out = []
    for row in X:
        acc = [0] * len(inv)
        for x, y in zip(row, Y):
            if x:
                acc = [a + x * b for a, b in zip(acc, y)]
        out.append(tuple(a % d if d else a for a, d in zip(acc, inv)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Smith normal form

# side length beyond which snf_invariants re-verifies itself modularly
_VERIFY_DIM = 500


def _min_abs_position(M: list[list[int]], t: int):
    """Position of the first nonzero entry of least absolute value in
    M[t:][t:], row by row, or None."""
    best, pos = 0, None
    for i in range(t, len(M)):
        tail = M[i][t:]
        m = min(map(abs, filter(None, tail)), default=0)
        if m and (not best or m < best):
            best = m
            pos = i, t + next(j for j, x in enumerate(tail) if abs(x) == m)
            if m == 1:
                break
    return pos


def _snf_core(M: list[list[int]], R: list[list[int]] | None = None,
              R_inv: list[list[int]] | None = None) -> list[int]:
    """In-place Smith elimination of the list rows M.

    When R and R_inv are given (both starting as the identity on the
    columns), each column operation is applied to the columns of R,
    held as the lists R[i], and its inverse to the rows R_inv[j], so
    that R @ R_inv stays the identity.  Step t works on the block
    M[t:][t:]: the rows and columns outside it are already 0 there.
    """
    nrows, ncols = len(M), len(M[0]) if M else 0

    def row_sub(i, j, q, t):  # row_i -= q * row_j
        M[i][t:] = [a - q * b for a, b in zip(M[i][t:], M[j][t:])]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]

    def col_sub(i, j, q, t):  # col_i -= q * col_j
        for r in range(t, nrows):
            row = M[r]
            if row[j]:
                row[i] -= q * row[j]
        if R is not None:
            R[i] = [a - q * b for a, b in zip(R[i], R[j])]
            R_inv[j] = [a + q * b for a, b in zip(R_inv[j], R_inv[i])]

    def col_swap(i, j, t):
        for r in range(t, nrows):
            row = M[r]
            row[i], row[j] = row[j], row[i]
        if R is not None:
            R[i], R[j] = R[j], R[i]
            R_inv[i], R_inv[j] = R_inv[j], R_inv[i]

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
            col_swap(t, j, t)
        while True:
            # clear column t, re-pivoting on any smaller remainder
            moved = False
            for i in range(t + 1, nrows):
                v = M[i][t]
                if v:
                    q = v // M[t][t]
                    if q:
                        row_sub(i, t, q, t)
                    if M[i][t]:
                        row_swap(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, ncols):
                v = M[t][j]
                if v:
                    q = v // M[t][t]
                    if q:
                        col_sub(j, t, q, t)
                    if M[t][j]:
                        col_swap(t, j, t)
                        moved = True
            if moved:
                continue
            break
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        # divisibility fix-up: pivot must divide every remaining entry
        pv = M[t][t]
        bad = next((i for i in range(t + 1, nrows) if pv != 1
                    and any(x % pv for x in M[i][t + 1:])), None)
        if bad is not None:
            # add the offending row to row t, then re-eliminate
            row_sub(t, bad, -1, t)
            continue
        diag.append(pv)
        t += 1
    return diag


def _is_inverse(R: list[list[int]], R_inv: list[list[int]]) -> bool:
    """R @ R_inv == I, for R given by its columns and R_inv by its rows,
    on their nonzeros: row i of the product sums, over the k with
    R[i, k] != 0, R[i, k] times row k of R_inv."""
    prod = [{} for _ in R]
    for col, row in zip(R, R_inv):
        row = [(j, y) for j, y in enumerate(row) if y]
        for i, x in enumerate(col):
            if x:
                acc = prod[i]
                for j, y in row:
                    acc[j] = acc.get(j, 0) + x * y
    return all({j: y for j, y in acc.items() if y} == {i: 1}
               for i, acc in enumerate(prod))


def smith_coordinates(A, ambient: int
                      ) -> tuple[AbGroup, tuple, tuple]:
    """Z^ambient / rowspace(A) in invariant coordinates.

    Returns (group, to, back), to and back as tuples of int rows.  x @ to,
    reduced mod the invariant factors of group (exact on the free ones),
    are the coordinates of the class of x in Z^ambient; c @ back lifts
    coordinates c back to Z^ambient.  to holds the columns of the Smith
    column transform R at the factors other than 1 and at the free
    factors, back the same rows of R^-1.  R^-1 is built in the same
    pass, and R @ R^-1 = I is checked on the nonzeros: LinalgError
    otherwise.
    """
    mat = _as_matrix(A, ambient)
    if mat.cols != ambient:
        raise LinalgError(
            f"relations have {mat.cols} columns, not {ambient}")
    R, R_inv = _identity_rows(ambient), _identity_rows(ambient)
    diag = _snf_core(list(map(list, mat.entries)), R, R_inv)
    if not _is_inverse(R, R_inv):
        raise LinalgError("Smith column transform is not unimodular")
    diag += [0] * (ambient - len(diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    group = AbGroup(tuple(diag[i] for i in keep))
    to = tuple(zip(*(R[i] for i in keep))) or ((),) * ambient
    return group, to, tuple(tuple(R_inv[i]) for i in keep)


def snf_invariants(A) -> list[int]:
    """Nonzero part of the Smith diagonal (no transforms kept).

    For a matrix with a side over _VERIFY_DIM an independent pass
    recomputes the invariant valuations at every prime dividing the
    result, by the sparse elimination over Z/p^k, and raises LinalgError
    on disagreement.
    """
    mat = _as_matrix(A)
    diag = _snf_core(list(map(list, mat.entries)))
    if max(mat.rows, mat.cols) > _VERIFY_DIM and diag:
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
    elimination: it reads the sequences of A itself into one dict per
    row, from column to residue mod p^K, and keeps for each column the
    set of rows nonzero in it.  Layer v works mod p^(K - v), in rounds.  A round
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
    ptr, idx, val = A.indptr, A.indices, A.data
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

def _shifted_indices(factors, g) -> list[int]:
    """The mixed-radix index of a + g for every tuple a of residues mod
    factors, in index order: one nested product per factor."""
    out = [0]
    for d, x in zip(factors, g):
        step = [(t + x) % d for t in range(d)]
        out = [o * d + s for o in out for s in step]
    return out


class AbGroup(_Frozen):
    """Finitely generated abelian group in invariant factor form.

    invariant_factors is (d_1, ..., d_k) with d_i | d_{i+1}, no d_i = 1,
    and 0 encoding an infinite cyclic factor (zeros come last).
    """

    _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        prev = None
        for d in invariant_factors:
            if d == 1 or d < 0:
                raise LinalgError(f"bad invariant factor {d}")
            if prev is not None and prev != 0:
                if d != 0 and d % prev:
                    raise LinalgError("invariant factors must form a divisor chain")
            if prev == 0 and d != 0:
                raise LinalgError("free factors must come last")
            prev = d
        self.__dict__.update(invariant_factors=invariant_factors)

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

    # the enumeration as index lists, for index maps
    @cached_property
    def coordinates(self) -> tuple[tuple[int, ...], ...]:
        """The elements as one tuple, in elements() order: the element
        of index g is entry g."""
        return tuple(self.elements())

    def radix(self) -> tuple[int, ...]:
        """Mixed-radix place values: index_of(a) == reduce(a) . radix()."""
        if not self.is_finite:
            raise LinalgError("an infinite group has no mixed-radix index")
        d = self.invariant_factors
        return tuple(math.prod(d[i + 1:]) for i in range(len(d)))

    def indices(self, coords) -> list[int]:
        """index_of of each coordinate tuple of coords."""
        return [self.index_of(a) for a in coords]

    def translation(self, g) -> list[int]:
        """Translation by g on indices: entry a is the index of the
        element of index a plus g."""
        if not self.is_finite:
            raise LinalgError("an infinite group has no mixed-radix index")
        return _shifted_indices(self.invariant_factors, g)


class AbHom(_Frozen):
    """Homomorphism between finite abelian groups in invariant coordinates.

    matrix has one row per domain invariant; the image of x is x @ matrix
    reduced in the codomain.  Construction checks well-definedness:
    d_i * row_i must vanish in the codomain.
    """

    _fields = ("domain", "codomain", "matrix")

    def __init__(self, domain: AbGroup, codomain: AbGroup,
                 matrix: tuple[tuple[int, ...], ...]):
        kd = len(domain.invariant_factors)
        kc = len(codomain.invariant_factors)
        if len(matrix) != kd or any(len(r) != kc for r in matrix):
            raise LinalgError("homomorphism matrix has wrong shape")
        for d, row in zip(domain.invariant_factors, matrix):
            for v, dc in zip(row, codomain.invariant_factors):
                if dc == 0:
                    if d != 0 and d * v != 0:
                        raise LinalgError("map not well defined on torsion")
                elif d != 0 and (d * v) % dc:
                    raise LinalgError("map not well defined")
        self.__dict__.update(domain=domain, codomain=codomain, matrix=matrix)

    def apply(self, a) -> tuple[int, ...]:
        kc = len(self.codomain.invariant_factors)
        acc = [0] * kc
        for x, row in zip(a, self.matrix):
            if x:
                for j in range(kc):
                    acc[j] += x * row[j]
        return self.codomain.reduce(tuple(acc))

    @cached_property
    def index_image(self) -> tuple[int, ...]:
        """The map on mixed-radix indices: entry g is the codomain index
        of the image of the domain element of index g.  One codomain
        coordinate at a time: over the domain factors in turn, each
        nested product adds the multiples of one matrix row."""
        cod = self.codomain
        out = [0] * self.domain.order
        for j, (d, r) in enumerate(zip(cod.invariant_factors, cod.radix())):
            coord = [0]
            for f, row in zip(self.domain.invariant_factors, self.matrix):
                step = [t * row[j] % d for t in range(f)]
                coord = [(x + s) % d for x in coord for s in step]
            out = [o + x * r for o, x in zip(out, coord)]
        return tuple(out)


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
    ptr, idx, val = sp.indptr, sp.indices, sp.data
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
    kept = [c for c in range(sp.cols) if at[c]]
    rest = []
    for i in sorted(rows):
        get = rows[i].get
        rest.append([get(c, 0) for c in kept])
    return ones, IntMatrix(rest, len(kept))


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
    """Saturated basis of {v integer : A v = 0}: the columns of the
    Smith column transform R at the free factors of
    smith_coordinates(A, A.cols).  A R is zero past the rank and R is
    unimodular, so these columns span every integer kernel vector."""
    mat = _as_matrix(A)
    group, to, _ = smith_coordinates(mat, mat.cols)
    return list(zip(*to))[len(group.torsion):]


def solve_left(A, b: Sequence[int]):
    """One integer solution x of x A = b, or None.

    A may be an IntMatrix or a row sequence.  The kernel of [A; b]^T
    holds the (x, t) with x A + t b = 0, and it is saturated, so b lies
    in the row lattice exactly when the t of its basis have gcd 1.  The
    extended gcd combines the basis into one vector with t = 1, whose
    negated x is returned once x A = b is checked: LinalgError
    otherwise.
    """
    stacked = IntMatrix(_as_matrix(A).entries + (_ints(b),))
    n = stacked.rows - 1
    g, acc = 0, [0] * (n + 1)
    for v in rational_kernel(stacked.transpose()):
        g, u, w = _xgcd(g, v[n])
        acc = [u * a + w * y for a, y in zip(acc, v)]
    if g != 1:
        return None
    x = [-a for a in acc[:n]]
    if _reduced_product([x], stacked.entries[:n], (0,) * stacked.cols) \
            != stacked.entries[n:]:
        raise LinalgError("left solve does not reproduce the target")
    return x


def subquotient_torsion(kernel_basis, sub_rows) -> AbGroup:
    """Structure of rowspace(kernel_basis) / rowspace(sub_rows).

    The kernel basis rows must be independent (LinalgError otherwise).
    Each sub row enters through its coordinates in that basis, by
    solve_left, and the cokernel of the coordinates is the result.
    Raises NotSubLattice when some sub row is outside the span of the
    kernel basis.  Free rank, if any, is reported through zero invariant
    factors.
    """
    kmat = _as_matrix(kernel_basis)
    if rational_kernel(kmat.transpose()):
        raise LinalgError("kernel basis rows are dependent")
    smat = _as_matrix(sub_rows)
    if smat.rows and smat.cols != kmat.cols:
        raise NotSubLattice("ambient dimensions differ")
    coords = []
    for r in smat.entries:
        c = solve_left(kmat, r)
        if c is None:
            raise NotSubLattice("row outside the big lattice")
        coords.append(c)
    return cokernel(IntMatrix(coords, kmat.rows), kmat.rows)


# ---------------------------------------------------------------------------
# black-box abelian structure

def _grow(span: bytearray, perm: Sequence[int]) -> None:
    """Grow the 0/1 mask span of a subgroup H, in place, to the
    subgroup that H and x generate, where perm is multiplication by x
    on the labels: the cosets H, xH, x^2 H, ... are added until one is
    already in."""
    coset = [perm[i] for i, x in enumerate(span) if x]
    while not span[coset[0]]:
        for i in coset:
            span[i] = 1
        coset = [perm[i] for i in coset]


def _harvest(order: int, perm_of: Callable[[int], Sequence[int]],
             identity: int) -> list[Sequence[int]]:
    """The permutations of greedy generators of a group on the labels
    0 .. order - 1, each built once, to hand to _discover.

    perm_of(x) is multiplication by the element of label x, as a list
    of labels, so a generator's label is its permutation at identity.
    A label joins, in increasing order, when it is outside the subgroup
    the earlier ones generate, until that subgroup is the whole group.
    The subgroup is a bytearray mask that _grow extends by whole cosets.
    """
    span = bytearray(order)
    span[identity] = 1
    perms = []
    x = span.find(0)  # the least label outside the span
    while x >= 0:
        perms.append(perm_of(x))
        _grow(span, perms[-1])
        x = span.find(0, x)
    return perms


def _discover(order: int, perms: Sequence[Sequence[int]], identity: int):
    """Structure and discrete logarithm of a group on integer labels.

    perms[i] is multiplication by the i-th generator, as a list of
    labels.  A breadth-first search from identity records each label's
    first word in the generators, generator by generator in the order
    given; the differences of words along every generator edge are the
    relations, and their Smith form gives the invariant factors and the
    coordinates.  Returns (AbGroup, bfs, coords): bfs lists the labels
    in the order the search found them, coords[label] their invariant
    coordinates.

    A word is packed into one int, its entries the digits base B: an
    entry counts steps of a search over at most size labels, so each
    entry of a difference of words lies strictly between -B/2 and B/2,
    and one balanced digit expansion reads it back.
    """
    k = len(perms)
    size = len(perms[0]) if k else identity + 1
    B = 2 * size + 2
    unit = [B ** i for i in range(k)]
    # a FIFO queue visits the elements level by level, each level in
    # the order its parents were found and, per parent, generator by
    # generator; an element keeps the word of its first visit, one step
    # on from its parent's
    word, parent = [None] * size, [None] * size
    word[identity] = 0
    bfs = [identity]
    for e in bfs:  # grows while it is walked
        w = word[e]
        for i, step in enumerate(perms):
            f = step[e]
            if word[f] is None:
                word[f] = w + unit[i]
                parent[f] = e, i
                bfs.append(f)
    if len(bfs) < order:
        raise GeneratorsInsufficient(
            f"generators span {len(bfs)} of {order} elements")
    if len(bfs) > order:
        raise LinalgError("closure exceeds declared order")
    # row (e, i): word(e) + e_i - word(e g_i), the distinct nonzero rows
    # sorted as tuples
    rel = set()
    for u, step in zip(unit, perms):
        rel.update([word[e] + u - word[step[e]] for e in bfs])
    rel.discard(0)

    def digits(x):
        out = []
        for _ in range(k):
            d = x % B
            d -= B if 2 * d > B else 0
            out.append(d)
            x = (x - d) // B
        return tuple(out)

    group, to, _ = smith_coordinates(
        IntMatrix(sorted(map(digits, rel)), k), k)
    if not group.is_finite:
        raise LinalgError("black-box group is not finite as presented")
    if group.order != order:
        raise LinalgError("relation lattice volume does not match order")
    # coords(word(e) + e_i) = coords(word(e)) + row i of to, reduced
    coords = [group.zero()] * size
    to = [group.reduce(r) for r in to]
    for f in bfs[1:]:
        e, i = parent[f]
        coords[f] = group.add(coords[e], to[i])
    return group, bfs, coords

