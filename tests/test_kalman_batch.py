"""Block Kalman filter and batched IoU against matrix-form and scalar references, bit for bit.

The tracker runs one predict over all tracks and one update over the
matched rows per frame, on (n, 3, 4) covariance blocks.  Every row of a
batched call must equal the single-state call and the matrix-form
reference below (7x7 transition, Joseph-form update through
`np.linalg.solve`) exactly, so these compare with `np.array_equal`, not a
tolerance.  A last-bit change rarely moves the two-decimal track file or
the grid cells, so the pinned digests alone would not catch one.  The
reference builds its own F, Q, R and P0 from the `KalmanParams` tuples and
shares no constant with the code it checks.

The block filter equals the matrix form only where LAPACK's solve on a
diagonal S multiplies by 1/S and BLAS adds the zero products without
effect; a platform where either differs fails here.
"""

from __future__ import annotations

import numpy as np

from crowdrisk.geometry import BBox, iou, iou_matrix
from crowdrisk.tracking import (
    DEFAULT_KALMAN,
    KalmanParams,
    covariance,
    degenerate,
    kalman_predict,
    kalman_update,
    measurements_from_boxes,
)

N = 200

# Every component differs, so no two blocks share their arithmetic.
SKEWED = KalmanParams(
    meas_noise=(2.0, 0.5, 30.0, 0.07),
    process_noise=(0.3, 0.02, 7.0, 1e-3, 0.05, 0.004, 2.0),
    init_state_var=3.0,
    init_velocity_var=250.0,
)


def reference_matrices(params: KalmanParams) -> tuple[np.ndarray, ...]:
    """F, Q, R and P0 of the 7-state constant-velocity model, as matrices."""
    F = np.eye(7)
    F[0, 4] = F[1, 5] = F[2, 6] = 1.0
    Q = np.diag(np.array(params.process_noise, dtype=float))
    R = np.diag(np.array(params.meas_noise, dtype=float))
    P0 = np.diag([params.init_state_var] * 4 + [params.init_velocity_var] * 3)
    return F, Q, R, P0


def _mT(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def reference_predict(x: np.ndarray, P: np.ndarray, params=DEFAULT_KALMAN):
    """Matrix-form predict on (..., 7) means and (..., 7, 7) covariances."""
    F, Q, _, _ = reference_matrices(params)
    x = (F @ x[..., None])[..., 0]
    P = F @ P @ F.T + Q
    return x, (P + _mT(P)) / 2.0


def reference_update(x: np.ndarray, P: np.ndarray, meas: np.ndarray, params=DEFAULT_KALMAN):
    """Matrix-form Joseph update of (..., 7) means and (..., 7, 7) covariances."""
    _, _, R, _ = reference_matrices(params)
    innovation = meas - x[..., :4]
    S = P[..., :4, :4] + R
    K = _mT(np.linalg.solve(S, P[..., :4, :]))
    x = x + (K @ innovation[..., None])[..., 0]
    I_KH = np.broadcast_to(np.eye(7), P.shape).copy()
    I_KH[..., :4] -= K
    P = I_KH @ P @ _mT(I_KH) + K @ R @ _mT(K)
    return x, (P + _mT(P)) / 2.0


def random_states(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 7) means and (n, 3, 4) positive definite covariance blocks."""
    x = np.empty((n, 7))
    x[:, :2] = rng.uniform(0, 1920, (n, 2))
    x[:, 2] = rng.uniform(200, 20000, n)
    x[:, 3] = rng.uniform(0.2, 1.0, n)
    x[:, 4:] = rng.normal(0, 2, (n, 3))
    var, vel = rng.uniform(0.5, 50.0, (2, n, 4))
    cov = rng.uniform(-0.95, 0.95, (n, 4)) * np.sqrt(var * vel)  # cov^2 < var * vel
    cov[:, 3] = vel[:, 3] = 0.0  # the aspect ratio has no velocity
    return x, np.stack([var, cov, vel], axis=1)


def random_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.column_stack(
        [rng.uniform(0, 1920, (n, 2)), rng.uniform(5, 80, n), rng.uniform(20, 200, n)]
    )


def test_batched_predict_rows_equal_single_calls():
    x, P = random_states(np.random.default_rng(1), N)
    out_x, out_P = kalman_predict(x, P)
    for i in range(N):
        one_x, one_P = kalman_predict(x[i], P[i])
        ref_x, ref_P = reference_predict(x[i], covariance(P[i]))
        assert np.array_equal(out_x[i], one_x) and np.array_equal(out_x[i], ref_x)
        assert np.array_equal(out_P[i], one_P)
        assert np.array_equal(covariance(out_P[i]), ref_P)


def test_batched_update_rows_equal_single_calls():
    rng = np.random.default_rng(2)
    x, P = kalman_predict(*random_states(rng, N))
    boxes = random_boxes(rng, N)
    z = measurements_from_boxes(boxes)
    out_x, out_P = kalman_update(x, P, z, DEFAULT_KALMAN)
    for i in range(N):
        cx, cy, w, h = boxes[i]
        one_x, one_P = kalman_update(x[i], P[i], z[i])
        ref_x, ref_P = reference_update(x[i], covariance(P[i]), np.array([cx, cy, w * h, w / h]))
        assert np.array_equal(out_x[i], one_x) and np.array_equal(out_x[i], ref_x)
        assert np.array_equal(out_P[i], one_P)
        assert np.array_equal(covariance(out_P[i]), ref_P)


def test_long_run_keeps_blocks_and_matches_matrix_form():
    """200 frames of 100 tracks, 80% matched each frame, with skewed noise."""
    rng = np.random.default_rng(6)
    n = 100
    _, _, _, P0 = reference_matrices(SKEWED)
    assert np.array_equal(covariance(SKEWED.P0), P0)
    x, _ = random_states(rng, n)
    x[:, 4:] = 0.0
    ref_x, ref_P = x.copy(), np.broadcast_to(P0, (n, 7, 7)).copy()
    P = np.broadcast_to(SKEWED.P0, (n, 3, 4)).copy()
    off_block = covariance(np.ones((3, 4))) == 0.0
    for frame in range(200):
        x, P = kalman_predict(x, P, SKEWED)
        ref_x, ref_P = reference_predict(ref_x, ref_P, SKEWED)
        assert np.array_equal(x, ref_x) and np.array_equal(covariance(P), ref_P), frame
        rows = np.flatnonzero(rng.random(n) < 0.8)
        z = ref_x[rows, :4] + rng.normal(0.0, [3.0, 3.0, 50.0, 0.02], (len(rows), 4))
        x[rows], P[rows] = kalman_update(x[rows], P[rows], z, SKEWED)
        ref_x[rows], ref_P[rows] = reference_update(ref_x[rows], ref_P[rows], z, SKEWED)
        assert np.all(ref_P[:, off_block] == 0.0), frame
        assert np.array_equal(x, ref_x) and np.array_equal(covariance(P), ref_P), frame


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
