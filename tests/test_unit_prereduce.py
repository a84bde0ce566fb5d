"""The sparse unit pre-reduction of cokernel: against the dense pass it
replaced (tests/dense_prereduce.py) on random, frame and trace-ideal
matrices, on row orders that stalled the dense pass, and for its memory
on the largest frame of the toralg sweep."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_prereduce
from conftest import prime_above
from ordist.cohomology import (
    SylowFrameSynthetic,
    _trace_rows,
    sweep_torsion_law,
    twisted_trace_torsion,
)
from ordist.groupring import _gamma_labels, trace_ideal
from ordist.quadfield import Modulus, make_field
from ordist.rayclass import ray_class_group
from ordist.zlinalg import (
    CSRMatrix,
    IntMatrix,
    _unit_prereduce,
    snf_invariants,
)
from test_cohomology import _sweep_frames


def _invariants(prereduce, mat):
    ones, rest = prereduce(mat)
    return [1] * ones + snf_invariants(rest)


def _same_as_dense(mat):
    return _invariants(_unit_prereduce, mat) == \
        _invariants(dense_prereduce.unit_prereduce, mat)


# mostly zeros and units, and entries past 2^63 for the object path
_ENTRIES = st.one_of(st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -3)),
                     st.integers(-3, 3).map(lambda k: (k << 63) + 1))


@st.composite
def _unit_rich_matrices(draw):
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return rows, draw(st.permutations(range(n)))


@given(_unit_rich_matrices())
@example(([[1, 1 << 62], [1 << 62, 1]], [1, 0]))  # products past int64
@settings(max_examples=150, deadline=None)
def test_sparse_pass_matches_dense_reference(case):
    rows, order = case
    cols = len(rows[0])
    for shuffled in (rows, [rows[i] for i in order]):
        assert _same_as_dense(IntMatrix.from_rows(shuffled, cols))


def test_sparse_pass_matches_dense_reference_on_sweep_frames():
    frames = 0
    for frame in _sweep_frames(2187):
        for twisted in (False, True):
            rows = _trace_rows(frame, range(1, frame.m + 1), twisted)
            assert _same_as_dense(rows), (frame, twisted)
        frames += 1
    assert frames == 55


def test_sparse_pass_matches_dense_reference_on_trace_ideals(triple7):
    for u in triple7.levels:
        assert _same_as_dense(trace_ideal(triple7.ray(u))), u


def _label_order_rows(order, labels, reverse):
    """The coset rows of each distinct subgroup, block after block, the
    cosets of a block in the order of their labels; or all reversed."""
    blocks, seen = [], set()
    for lab in map(np.asarray, labels):
        width = int((lab == lab[0]).sum())
        block = np.argsort(lab, kind="stable").reshape(-1, width)
        if block[0].tobytes() not in seen:
            seen.add(block[0].tobytes())
            blocks.append(block)
    rows = [r for b in blocks for r in b]
    if reverse:
        rows.reverse()
    return CSRMatrix(np.cumsum([0] + [len(r) for r in rows]),
                     np.concatenate(rows),
                     np.ones(sum(map(len, rows)), dtype=np.int64),
                     order)


@pytest.mark.parametrize("reverse", [False, True])
def test_gamma_rows_clear_every_unit_pivot_in_any_order(reverse):
    # in coset-label order the dense pass stopped after 1941 pivots with
    # a 75 x 4451 residual that the Smith elimination did not finish
    K = make_field(3)
    m = Modulus(K, tuple((prime_above(K, q), 1) for q in (7, 13, 19, 31)))
    rows = _label_order_rows(*_gamma_labels(ray_class_group(K, m)), reverse)
    assert (rows.rows, rows.cols) == (2196, 6480)
    ones, rest = _unit_prereduce(rows)
    assert ones == 1960
    assert (rest.rows, rest.cols) == (0, 0)


def test_sweep_three_primes_without_drop():
    # the dense pass spent 5.3 s and about 570 MB on the 2916 x 6561
    # rows of its largest frame
    records = sweep_torsion_law(3, 4, r=0)
    assert len(records) == 14
    assert all(rec["law_holds"] and rec["torsion"] == [] for rec in records)


def test_largest_toralg_frame_stays_small():
    # the 972 x 2187 twisted rows of the largest frame of toralg-sweep;
    # dense rows and the dense pass peaked at 55 MiB here
    frame = SylowFrameSynthetic(3, (9, 9, 9, 9), 1)
    tracemalloc.start()
    try:
        tor = twisted_trace_torsion(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tor.is_trivial
    assert peak < 25 << 20, peak
