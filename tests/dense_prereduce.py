"""Reference unit pre-reduction: the dense pass.

This is the layout that ordist.zlinalg._unit_prereduce used before it
moved onto sparse rows: the whole matrix is one numpy array, promoted
from int64 to object when a pivot's products could outgrow int64, and
each round takes the +-1 entries in a stable sort of their Markowitz
scores, skipping those an earlier pivot changed.  The tests keep it as
the independent reference for the differential test of the sparse
pass; both must give the same [1] * ones + Smith invariants of the rest.
"""

from __future__ import annotations

import numpy as np

from numpy_linalg import _abs_max, _promote, dense
from ordist.zlinalg import IntMatrix


def unit_prereduce(mat) -> tuple[int, IntMatrix]:
    """(unit pivot count, remaining matrix), by dense Schur steps, for
    an IntMatrix, a CSRMatrix or int rows."""
    A = dense(mat)
    if A.size == 0:
        return 0, IntMatrix(A, A.shape[1])
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
    return ones, IntMatrix(A[np.ix_(keep_r, keep_c)], len(keep_c))
