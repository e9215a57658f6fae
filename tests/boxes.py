"""Array inputs for the tracker built from plain (cx, cy, w, h) box tuples."""

from __future__ import annotations

import numpy as np

from crowdrisk.tracking import (
    DEFAULT_KALMAN,
    KalmanParams,
    TrackArrays,
    measurements_from_boxes,
)


def box_rows(*boxes, conf: float = 1.0) -> np.ndarray:
    """(m, 5) detection rows (cx, cy, w, h, conf) of (cx, cy, w, h) boxes."""
    return np.array([(*box, conf) for box in boxes], dtype=float)


def measure(box) -> np.ndarray:
    """(u, v, s, r) observation of one (cx, cy, w, h) box."""
    return measurements_from_boxes(np.array([box], dtype=float))[0]


def state_from_box(box, params: KalmanParams = DEFAULT_KALMAN) -> tuple[np.ndarray, np.ndarray]:
    """The filter state (x, P) the tracker spawns for one (cx, cy, w, h) box."""
    t = TrackArrays.spawn(1, np.array([box], dtype=float), np.ones(1), params)
    return t.x[0], t.P[0]
