"""Reference Hermite forms on the echelon core, and the ideal lattice
reduction that used them.

ordist.zlinalg served hnf and hnf_basis until the ideal arithmetic of
quadfield moved onto a two-column extended-gcd reduction; nothing in
the package reads them since.  The tests keep them, on the package's
own _echelon and _reduce_above, as the reference of the Hermite tests
and of the differential test of quadfield._ideal_from_lattice, whose
previous body is kept here as ideal_from_lattice.
"""

from __future__ import annotations

from ordist import OrdistError
from ordist.quadfield import OIdeal
from ordist.zlinalg import (
    IntMatrix,
    _as_matrix,
    _augmented,
    _echelon,
    _reduce_above,
    _rows_of,
)


def hnf(A) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form H = U A with U unimodular.

    H has positive pivots, entries above each pivot reduced into
    [0, pivot), and zero rows at the bottom.
    """
    mat = _as_matrix(A)
    n, c = mat.rows, mat.cols
    pivots, rest = _echelon(_augmented(mat), 0, c)
    _reduce_above(pivots)
    ordered = [p for _, p in pivots] + rest
    return IntMatrix([r[:c] for r in ordered], c), \
        IntMatrix([r[c:] for r in ordered], n)


def hnf_basis(rows_or_mat) -> list[tuple[int, ...]]:
    """Canonical HNF basis of the lattice spanned by the given rows
    (zero rows dropped)."""
    rows, cols = _rows_of(rows_or_mat)
    pivots, _ = _echelon(rows, 0, cols)
    _reduce_above(pivots)
    return [tuple(p) for _, p in pivots]


def ideal_from_lattice(K, gens) -> OIdeal:
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
