"""Reference transform: the dense matrix that level_torsion used to build.

Before its rank and annihilation checks moved onto the level elements
alone, ordist built the integral transform F of a presentation as one
#G_m x generators matrix: column (u, sigma) is a(u, m), brought to the
common denominator of all the a(u, m), translated by the first lift of
sigma to G_m.  It multiplied F with the nonzeros of the relation matrix
to check annihilation, and re-read the translate structure off F before
counting its rank on characters.  The tests keep all three as the
independent reference of the differential tests of the transform-free
checks, with the rank over F_p that certified F.  The level elements
come from the ring products of index_groupring (trace times the factors
1 - p_star), not from the coset sums of alpha.

The rank and oracle (b) of level_torsion once ran on one dense layered
elimination over Z/p^K; it stays here as the reference of the sparse
pass zlinalg._local_valuations.
"""

from __future__ import annotations

import math

import numpy as np

from index_groupring import level_element
from numpy_linalg import _abs_max, _promote, coordinates, dense, indices
from ordist.distribution import OracleMismatch, _lifts
from ordist.zlinalg import IntMatrix, _as_matrix


def _layered_elimination(mat: IntMatrix, p: int, K: int) -> list[int]:
    """p-adic valuations below K of the invariant factors of mat, by
    dense elimination over Z/p^K, in ascending order.

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
    A = dense(mat)
    A = _promote(A, max(_abs_max(A), mod))
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


def modular_rank(A, p: int = 2147483647) -> int:
    """Rank of A over the prime field F_p, by default p = 2^31 - 1: the
    pivot count of the layered elimination over Z/p.

    Always a lower bound for the rank over Q; when the result reaches
    min(rows, cols) the rational rank is certified equal.
    """
    return len(_layered_elimination(_as_matrix(A), p, 1))


def iwasawa_matrix(P, element=level_element) -> tuple[IntMatrix, int]:
    """(F, scale): the transform of P, one column per generator, times
    scale, the least common denominator of its entries.  Block u is one
    gather of the scaled element(u, m, G_m) on the indices of G_m."""
    G = P.ray(P.modulus)
    amb = G.group
    coords = coordinates(amb)
    alphas = [element(u, P.modulus, G) for u in P.levels]
    scale = math.lcm(*(au.den for au in alphas))
    nums = [np.array([x * (scale // au.den) for x in au.num], dtype=object)
            for au in alphas]
    out = np.zeros((amb.order, P.n_gens),
                   dtype=_promote(np.concatenate(nums)).dtype)
    for u, num in zip(P.levels, nums):
        lift = np.asarray(_lifts(G, u)[1], dtype=np.int64)
        # F[g, (u, sigma)] = a_u[g - lift(sigma)]
        out[:, P.offset(u) + np.arange(len(lift))] = \
            num[indices(amb, coords[:, None, :], -coords[lift][None, :, :])]
    return IntMatrix(out, P.n_gens), scale


def annihilation_product(F: IntMatrix, rel) -> bool:
    """Exact check F . r = 0 for every row r of rel (an IntMatrix or a
    CSRMatrix).

    Only the nonzeros of rel are multiplied: the columns of F they pick,
    times their values, summed per relation row.  Rows of F go in
    chunks, so no temporary is larger than F.
    """
    R, F = dense(rel), dense(F)
    a, r = _abs_max(F), _abs_max(R)
    # bounds every entry and every partial sum of the product
    bound = max(a, r, a * r * F.shape[1])
    i, j = np.nonzero(R)
    if not i.size:
        return True
    A = _promote(F, bound)
    vals = _promote(R[i, j], bound)
    # np.nonzero goes row by row, so each relation row is one run of i
    starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
    step = max(1, F.size // i.size)
    return not any(
        np.add.reduceat(A[k:k + step, j] * vals, starts, axis=1).any()
        for k in range(0, F.shape[0], step))


def check_structure(P, F: IntMatrix) -> None:
    """Raise OracleMismatch unless F has the translate structure: for
    every divisor u the head column F[:, offset(u)] is constant on the
    fibres of G_m -> G_u, the lifts cover G_u, and every column
    (u, sigma) equals the head translated by lift(sigma), exactly."""
    G = P.ray(P.modulus)
    amb = G.group
    F = dense(F)
    if F.shape != (amb.order, P.n_gens):
        raise OracleMismatch(
            f"transform shape {F.shape} != "
            f"(#G_m, generators) = {(amb.order, P.n_gens)}")
    coords = coordinates(amb)
    for u in P.levels:
        image, lift = map(np.asarray, _lifts(G, u))
        if (lift < 0).any():
            raise OracleMismatch(f"lifts do not cover G_u at {u.label()}")
        off = P.offset(u)
        head = F[:, off]
        if (head != head[lift[image]]).any():
            raise OracleMismatch(
                f"head column at {u.label()} is not constant on the "
                f"fibres of G_m -> G_u")
        # block[sigma, g] = F[g + lift(sigma), (u, sigma)]
        block = F[indices(amb, coords[lift][:, None, :], coords),
                  off + np.arange(len(lift))[:, None]]
        if (block != head).any():
            raise OracleMismatch(
                f"a column at {u.label()} is not its head translated by "
                f"the lift")
