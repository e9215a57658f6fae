"""Batched Kalman filter and IoU against their single-state forms, bit for bit.

The tracker runs one predict over all tracks and one update over the
matched rows per frame.  Every row of a batched call must equal the
single-state call and the per-track reference below (the filter as it was
written for one state at a time) exactly, so these compare with
`np.array_equal`, not a tolerance.  A last-bit change rarely moves the
two-decimal track file or the grid cells, so the pinned digests alone
would not catch one.
"""

from __future__ import annotations

import numpy as np

from crowdrisk.geometry import BBox, iou_matrix
from crowdrisk.tracking import (
    DEFAULT_KALMAN,
    TRANSITION,
    TrackState,
    kalman_predict,
    kalman_update,
    measurements_from_boxes,
)

N = 200


def reference_predict(x: np.ndarray, P: np.ndarray, params=DEFAULT_KALMAN):
    """Per-track predict on one (7,) mean and (7, 7) covariance."""
    x = TRANSITION @ x
    P = TRANSITION @ P @ TRANSITION.T + params.Q
    return x, (P + P.T) / 2.0


def reference_update(x: np.ndarray, P: np.ndarray, box: BBox, params=DEFAULT_KALMAN):
    """Per-track Joseph-form update on one state against one box."""
    innovation = np.array([box.cx, box.cy, box.w * box.h, box.w / box.h]) - x[:4]
    S = P[:4, :4] + params.R
    K = np.linalg.solve(S, P[:4]).T
    x = x + K @ innovation
    I_KH = np.eye(7)
    I_KH[:, :4] -= K
    P = I_KH @ P @ I_KH.T + (K * params.meas_noise_diag) @ K.T
    return x, (P + P.T) / 2.0


def random_states(rng: np.random.Generator, n: int) -> TrackState:
    x = np.empty((n, 7))
    x[:, :2] = rng.uniform(0, 1920, (n, 2))
    x[:, 2] = rng.uniform(200, 20000, n)
    x[:, 3] = rng.uniform(0.2, 1.0, n)
    x[:, 4:] = rng.normal(0, 2, (n, 3))
    A = rng.normal(size=(n, 7, 7))
    P = A @ np.swapaxes(A, -1, -2) + np.eye(7)  # symmetric positive definite
    return TrackState(x=x, P=P)


def random_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.column_stack(
        [rng.uniform(0, 1920, (n, 2)), rng.uniform(5, 80, n), rng.uniform(20, 200, n)]
    )


def test_batched_predict_rows_equal_single_calls():
    batch = random_states(np.random.default_rng(1), N)
    out = kalman_predict(batch)
    for i in range(N):
        one = kalman_predict(TrackState(x=batch.x[i], P=batch.P[i]))
        ref_x, ref_P = reference_predict(batch.x[i], batch.P[i])
        assert np.array_equal(out.x[i], one.x) and np.array_equal(out.x[i], ref_x)
        assert np.array_equal(out.P[i], one.P) and np.array_equal(out.P[i], ref_P)


def test_batched_update_rows_equal_single_calls():
    rng = np.random.default_rng(2)
    batch = kalman_predict(random_states(rng, N))
    boxes = random_boxes(rng, N)
    out = kalman_update(batch, measurements_from_boxes(boxes), DEFAULT_KALMAN)
    for i in range(N):
        one = kalman_update(TrackState(x=batch.x[i], P=batch.P[i]), BBox(*boxes[i]))
        ref_x, ref_P = reference_update(batch.x[i], batch.P[i], BBox(*boxes[i]))
        assert np.array_equal(out.x[i], one.x) and np.array_equal(out.x[i], ref_x)
        assert np.array_equal(out.P[i], one.P) and np.array_equal(out.P[i], ref_P)


def test_batched_degenerate_flags_rows():
    batch = random_states(np.random.default_rng(3), 4)
    batch.x[1, 2] = -1.0
    batch.x[3, 3] = 0.0
    assert batch.degenerate.tolist() == [False, True, False, True]


def test_iou_matrix_arrays_equal_box_lists():
    rng = np.random.default_rng(4)
    rows, cols = random_boxes(rng, 30), random_boxes(rng, 40)
    rows[:, :2] = cols[:30, :2] + rng.normal(0, 10, (30, 2))  # overlapping pairs
    from_arrays = iou_matrix(rows, cols)
    from_lists = iou_matrix([BBox(*b) for b in rows], [BBox(*b) for b in cols])
    assert np.array_equal(from_arrays, from_lists)
    assert (from_arrays > 0).any()
