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

from crowdrisk.geometry import BBox, iou, iou_matrix
from crowdrisk.tracking import (
    DEFAULT_KALMAN,
    TRANSITION,
    degenerate,
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


def reference_update(x: np.ndarray, P: np.ndarray, box, params=DEFAULT_KALMAN):
    """Per-track Joseph-form update on one state against one (cx, cy, w, h) box."""
    cx, cy, w, h = box
    innovation = np.array([cx, cy, w * h, w / h]) - x[:4]
    S = P[:4, :4] + params.R
    K = np.linalg.solve(S, P[:4]).T
    x = x + K @ innovation
    I_KH = np.eye(7)
    I_KH[:, :4] -= K
    P = I_KH @ P @ I_KH.T + (K * params.meas_noise_diag) @ K.T
    return x, (P + P.T) / 2.0


def random_states(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 7) means and (n, 7, 7) covariances."""
    x = np.empty((n, 7))
    x[:, :2] = rng.uniform(0, 1920, (n, 2))
    x[:, 2] = rng.uniform(200, 20000, n)
    x[:, 3] = rng.uniform(0.2, 1.0, n)
    x[:, 4:] = rng.normal(0, 2, (n, 3))
    A = rng.normal(size=(n, 7, 7))
    P = A @ np.swapaxes(A, -1, -2) + np.eye(7)  # symmetric positive definite
    return x, P


def random_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.column_stack(
        [rng.uniform(0, 1920, (n, 2)), rng.uniform(5, 80, n), rng.uniform(20, 200, n)]
    )


def test_batched_predict_rows_equal_single_calls():
    x, P = random_states(np.random.default_rng(1), N)
    out_x, out_P = kalman_predict(x, P)
    for i in range(N):
        one_x, one_P = kalman_predict(x[i], P[i])
        ref_x, ref_P = reference_predict(x[i], P[i])
        assert np.array_equal(out_x[i], one_x) and np.array_equal(out_x[i], ref_x)
        assert np.array_equal(out_P[i], one_P) and np.array_equal(out_P[i], ref_P)


def test_batched_update_rows_equal_single_calls():
    rng = np.random.default_rng(2)
    x, P = kalman_predict(*random_states(rng, N))
    boxes = random_boxes(rng, N)
    out_x, out_P = kalman_update(x, P, measurements_from_boxes(boxes), DEFAULT_KALMAN)
    for i in range(N):
        one_x, one_P = kalman_update(x[i], P[i], measurements_from_boxes(boxes[i:i + 1])[0])
        ref_x, ref_P = reference_update(x[i], P[i], boxes[i].tolist())
        assert np.array_equal(out_x[i], one_x) and np.array_equal(out_x[i], ref_x)
        assert np.array_equal(out_P[i], one_P) and np.array_equal(out_P[i], ref_P)


def test_predict_and_update_leave_their_inputs_unchanged():
    rng = np.random.default_rng(5)
    x, P = random_states(rng, 8)
    z = measurements_from_boxes(random_boxes(rng, 8))
    for args in ((x, P, z), (x[0], P[0], z[0])):  # a batch, then one state
        kept = [a.copy() for a in args]
        for a in args:
            a.flags.writeable = False  # an in-place write raises
        kalman_predict(*args[:2])
        kalman_update(*args)
        for arg, before in zip(args, kept):
            assert np.array_equal(arg, before)


def test_batched_degenerate_flags_rows():
    x, _ = random_states(np.random.default_rng(3), 4)
    x[1, 2] = -1.0
    x[3, 3] = 0.0
    assert degenerate(x).tolist() == [False, True, False, True]
    assert not degenerate(x[0]) and degenerate(x[1])


def test_iou_matrix_cells_equal_scalar_iou():
    rng = np.random.default_rng(4)
    rows, cols = random_boxes(rng, 30), random_boxes(rng, 40)
    rows[:, :2] = cols[:30, :2] + rng.normal(0, 10, (30, 2))  # overlapping pairs
    rows[5] = cols[7]  # one identical pair
    out = iou_matrix(rows, cols)
    assert out.shape == (30, 40)
    for i, a in enumerate(rows.tolist()):
        for j, b in enumerate(cols.tolist()):
            assert out[i, j] == iou(BBox(*a), BBox(*b)), (i, j)
    assert (out > 0).sum() >= 30
