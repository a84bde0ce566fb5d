"""Reference Hermite forms on the numpy echelon pass, and the ideal
lattice reduction that used them.

ordist.zlinalg served hnf and hnf_basis until the ideal arithmetic of
quadfield moved onto a two-column extended-gcd reduction, and it lost
its echelon pass when kernels, left solves and subquotients moved onto
the Smith elimination.  The tests keep hnf and hnf_basis here, on the
_echelon, _reduce_above and _augmented of numpy_linalg, as the
reference of the Hermite tests, as the canonical form that kernel bases
are compared in, and for the differential test of
quadfield._ideal_from_lattice, whose previous body is kept here as
ideal_from_lattice.
"""

from __future__ import annotations

from ordist import OrdistError
from ordist.quadfield import OIdeal
from ordist.zlinalg import IntMatrix

from numpy_linalg import _augmented, _echelon, _object_rows, _reduce_above, \
    dense


def hnf(A) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form H = U A with U unimodular.

    H has positive pivots, entries above each pivot reduced into
    [0, pivot), and zero rows at the bottom.
    """
    a = dense(A)
    n, c = a.shape
    pivots, rest = _echelon(_augmented(a), 0, c)
    _reduce_above(pivots)
    ordered = [p.tolist() for _, p in pivots] + [r.tolist() for r in rest]
    return IntMatrix([r[:c] for r in ordered], c), \
        IntMatrix([r[c:] for r in ordered], n)


def hnf_basis(rows_or_mat) -> list[tuple[int, ...]]:
    """Canonical HNF basis of the lattice spanned by the given rows
    (zero rows dropped)."""
    rows, cols = _object_rows(rows_or_mat)
    pivots, _ = _echelon(rows, 0, cols)
    _reduce_above(pivots)
    return [tuple(p.tolist()) for _, p in pivots]


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
