"""SORT-style multi-object tracking over arrays.

Each person carries a 7-component constant-velocity state
[u, v, s, r, u', v', s'] — centroid, box area, aspect ratio, and their
rates (aspect ratio is modelled as constant).  The tracker holds all live
tracks as one structure of arrays (`TrackArrays`: means x (n, 7),
covariances P (n, 7, 7), and id/hits/age/time-since-update/confidence/
status vectors), so each frame runs one batched Kalman predict over every
track and one batched update over the matched rows; `Tracker.tracks` copies
those arrays out.  `kalman_predict` and `kalman_update` accept any leading
batch shape, and each row of a batched call is bit-identical to the
single-state call.  Predicted boxes are associated to detections as (n, 4)
arrays by minimum 1-IoU cost, gated, and tracks move through a Tentative ->
Confirmed -> Dead lifecycle; dead tracks leave the arrays in the frame they
die.

A frame comes in as one (m, 5) array of (cx, cy, w, h, conf) detection rows
and leaves as one `FrameTracks` of arrays, its ground points projected in
one `project_to_bev` call.  Nothing on this path builds an object per box
or per track.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .assignment import Assignment, solve_assignment
from .config import TrackerConfig
from .geometry import as_rows, foot_point, iou_matrix, project_to_bev

STATE_DIM = 7
MEAS_DIM = 4

# Constant-velocity transition: u += u', v += v', s += s'.
TRANSITION = np.eye(STATE_DIM)
TRANSITION[0, 4] = TRANSITION[1, 5] = TRANSITION[2, 6] = 1.0

# Observe (u, v, s, r).
OBSERVATION = np.eye(MEAS_DIM, STATE_DIM)

_EYE_STATE = np.eye(STATE_DIM)


class SequencingError(ValueError):
    """Frames fed to a tracker out of order."""


class NumericalUpdateError(ValueError):
    """Innovation covariance not positive definite (mis-set noise parameters)."""


@dataclass(frozen=True)
class KalmanParams:
    """Noise configuration for the per-track filter."""

    meas_noise: tuple[float, float, float, float] = (1.0, 1.0, 10.0, 10.0)
    process_noise: tuple[float, ...] = (1e-2, 1e-2, 1e-2, 1e-2, 1e-2, 1e-2, 1e-4)
    init_state_var: float = 10.0
    init_velocity_var: float = 1e4

    # The matrices are hot-path constants; build them once per parameter set.
    @functools.cached_property
    def meas_noise_diag(self) -> np.ndarray:
        return np.asarray(self.meas_noise, dtype=float)

    @functools.cached_property
    def R(self) -> np.ndarray:
        return np.diag(self.meas_noise_diag)

    @functools.cached_property
    def Q(self) -> np.ndarray:
        return np.diag(np.asarray(self.process_noise, dtype=float))

    def P0(self) -> np.ndarray:
        return np.diag([self.init_state_var] * 4 + [self.init_velocity_var] * 3).astype(float)


DEFAULT_KALMAN = KalmanParams()


def measurements_from_boxes(boxes: np.ndarray) -> np.ndarray:
    """(n, 4) (u, v, s, r) observations of (n, 4) center-format boxes.

    u, v: centroid; s: area; r: aspect ratio.
    """
    cx, cy, w, h = boxes.T
    return np.stack([cx, cy, w * h, w / h], axis=1)


def boxes_from_states(x: np.ndarray) -> np.ndarray:
    """(n, 4) center-format boxes (cx, cy, w, h) of non-degenerate (n, 7) states."""
    s, r = x[:, 2], x[:, 3]
    return np.stack([x[:, 0], x[:, 1], np.sqrt(s * r), np.sqrt(s / r)], axis=1)


@dataclass
class TrackState:
    """Filter state: mean x (..., 7) and covariance P (..., 7, 7).

    The component properties read the last axis, so they are scalars for
    one state and vectors for a batch.
    """

    x: np.ndarray
    P: np.ndarray

    u = property(lambda self: self.x[..., 0])
    v = property(lambda self: self.x[..., 1])
    s = property(lambda self: self.x[..., 2])
    r = property(lambda self: self.x[..., 3])
    du = property(lambda self: self.x[..., 4])
    dv = property(lambda self: self.x[..., 5])
    ds = property(lambda self: self.x[..., 6])

    @property
    def degenerate(self):
        """Box area or aspect ratio no longer describes a valid box."""
        return (self.s <= 0.0) | (self.r <= 0.0)


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def kalman_predict(state: TrackState, params: KalmanParams = DEFAULT_KALMAN) -> TrackState:
    """Constant-velocity propagation; covariance grows by the process noise."""
    x = (TRANSITION @ state.x[..., None])[..., 0]
    P = TRANSITION @ state.P @ TRANSITION.T + params.Q
    P = (P + _mT(P)) / 2.0
    return TrackState(x=x, P=P)


def kalman_update(
    state: TrackState, meas: np.ndarray, params: KalmanParams = DEFAULT_KALMAN
) -> TrackState:
    """Standard Kalman correction against an observed box.

    `meas` is an array (..., 4) of (u, v, s, r) observations with the batch
    shape of `state` (see `measurements_from_boxes`).  The gain splits the correction between
    prediction and observation in proportion to their covariances.
    Joseph-form covariance update keeps P symmetric positive semidefinite.
    """
    P = state.P
    innovation = np.asarray(meas, dtype=float) - state.x[..., :MEAS_DIM]
    # the observation matrix is a component selector, so H P H^T etc. are slices
    S = P[..., :MEAS_DIM, :MEAS_DIM] + params.R
    if not np.all(np.diagonal(S, axis1=-2, axis2=-1) > 0.0):
        raise NumericalUpdateError(
            "innovation covariance is not positive definite; check noise parameters"
        )
    try:
        K = _mT(np.linalg.solve(S, P[..., :MEAS_DIM, :]))
    except np.linalg.LinAlgError:
        raise NumericalUpdateError(
            "innovation covariance is not positive definite; check noise parameters"
        ) from None
    # matmul, not einsum: einsum sums in another order and moves the last bit
    x = state.x + (K @ innovation[..., None])[..., 0]
    I_KH = np.broadcast_to(_EYE_STATE, P.shape).copy()
    I_KH[..., :MEAS_DIM] -= K
    P_post = I_KH @ P @ _mT(I_KH) + (K * params.meas_noise_diag) @ _mT(K)
    P_post = (P_post + _mT(P_post)) / 2.0
    return TrackState(x=x, P=P_post)


@dataclass
class TrackArrays:
    """All live tracks as a structure of arrays; row i is one track, in birth order."""

    x: np.ndarray  # (n, 7) state means
    P: np.ndarray  # (n, 7, 7) state covariances
    id: np.ndarray  # (n,) track ids, increasing
    hits: np.ndarray  # (n,) matched detections, the spawning one included
    age: np.ndarray  # (n,) predictions since spawn
    time_since_update: np.ndarray  # (n,) frames since the last match
    conf: np.ndarray  # (n,) confidence of the last matched detection
    confirmed: np.ndarray  # (n,) status: True once Confirmed, False while Tentative

    @classmethod
    def spawn(cls, first_id: int, boxes: np.ndarray, conf: np.ndarray,
              params: KalmanParams) -> "TrackArrays":
        """Tentative tracks for (m, 4) detection boxes, ids from first_id on."""
        m = len(boxes)
        x = np.zeros((m, STATE_DIM))
        x[:, :MEAS_DIM] = measurements_from_boxes(boxes)
        return cls(
            x=x,
            P=np.broadcast_to(params.P0(), (m, STATE_DIM, STATE_DIM)).copy(),
            id=np.arange(first_id, first_id + m, dtype=np.int64),
            hits=np.ones(m, dtype=np.int64),
            age=np.zeros(m, dtype=np.int64),
            time_since_update=np.zeros(m, dtype=np.int64),
            conf=np.asarray(conf, dtype=float),
            confirmed=np.zeros(m, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.id)

    def select(self, rows: np.ndarray) -> "TrackArrays":
        return TrackArrays(*(getattr(self, f.name)[rows] for f in fields(self)))

    def concat(self, other: "TrackArrays") -> "TrackArrays":
        return TrackArrays(
            *(np.concatenate([getattr(self, f.name), getattr(other, f.name)])
              for f in fields(self))
        )


@dataclass(frozen=True, eq=False)
class FrameTracks:
    """The confirmed tracks updated in one frame, as arrays in birth order."""

    ids: np.ndarray  # (n,) track ids
    boxes: np.ndarray  # (n, 4) posterior boxes, center format (cx, cy, w, h)
    conf: np.ndarray  # (n,) confidence of the matched detection
    ground: np.ndarray | None  # (n, 2) projected foot points; None without a projection

    def __len__(self) -> int:
        return len(self.ids)


def associate(tracks, detections, iou_gate: float) -> Assignment:
    """Match tracks to detections by minimum 1-IoU cost.

    Both sides are (n, 4) arrays of center-format boxes; the matches are
    (track row, detection row) pairs.  Pairs with IoU below the gate are forbidden: the solver may pair them,
    but they are moved back to the unmatched sets afterwards.
    """
    if not (0.0 <= iou_gate <= 1.0):
        raise ValueError(f"iou_gate must be in [0, 1], got {iou_gate}")
    if not len(tracks) or not len(detections):
        return Assignment([], list(range(len(tracks))), list(range(len(detections))))

    overlap = iou_matrix(tracks, detections)
    raw = solve_assignment(1.0 - overlap)

    matches = []
    unmatched_t = list(raw.unmatched_tracks)
    unmatched_d = list(raw.unmatched_detections)
    for ti, di in raw.matches:
        if overlap[ti, di] >= iou_gate:
            matches.append((ti, di))
        else:
            unmatched_t.append(ti)
            unmatched_d.append(di)
    return Assignment(matches, sorted(unmatched_t), sorted(unmatched_d))


class Tracker:
    """Single-stream sequential tracker; one instance per camera stream.

    Frames must be fed in strictly increasing order.  Distinct instances
    are independent and may run in parallel.
    """

    def __init__(
        self,
        projection: np.ndarray | None = None,
        iou_gate: float = TrackerConfig.iou_gate,
        min_hits: int = TrackerConfig.min_hits,
        max_age: int = TrackerConfig.max_age,
        kalman: KalmanParams = DEFAULT_KALMAN,
    ):
        if not (0.0 <= iou_gate <= 1.0):
            raise ValueError(f"iou_gate must be in [0, 1], got {iou_gate}")
        if min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, got {min_hits}")
        if max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        self.projection = projection
        self.iou_gate = iou_gate
        self.min_hits = min_hits
        self.max_age = max_age
        self.kalman = kalman
        self._tracks = TrackArrays.spawn(1, np.zeros((0, 4)), np.zeros(0), kalman)
        self._next_id = 1
        self._last_frame: int | None = None
        self.last_spawned: list[int] = []
        self.last_removed: list[int] = []

    @property
    def tracks(self) -> TrackArrays:
        """A copy of the live tracks' arrays, one row per track in birth order."""
        return self._tracks.select(np.arange(len(self._tracks)))

    @property
    def next_id(self) -> int:
        return self._next_id

    @property
    def idle(self) -> bool:
        """True while no track is live: a step with no detections then only
        records the frame number."""
        return len(self._tracks) == 0

    def step(self, detections, frame: int) -> FrameTracks:
        """Advance one frame: predict, associate, update, manage lifecycle.

        `detections` is an (m, 5) array of (cx, cy, w, h, conf) rows; an
        empty input is a frame without detections, and any other shape is a
        ValueError.  Returns the confirmed tracks updated this frame, with
        their ground-plane positions when a projection is configured.
        """
        if self._last_frame is not None and frame <= self._last_frame:
            raise SequencingError(
                f"frame {frame} is not after previous frame {self._last_frame}"
            )
        det = np.asarray(detections, dtype=float)
        det = np.zeros((0, 5)) if det.size == 0 else as_rows(det, 5, "detections")
        self._last_frame = frame
        removed: list[int] = []

        t = self._tracks
        if len(t):
            predicted = kalman_predict(TrackState(t.x, t.P), self.kalman)
            t.x, t.P = predicted.x, predicted.P
            t.age += 1
            dead = predicted.degenerate
            if dead.any():
                removed.extend(t.id[dead].tolist())
                t = t.select(~dead)

        det_boxes, det_conf = det[:, :4], det[:, 4]
        assign = associate(boxes_from_states(t.x), det_boxes, self.iou_gate)

        if assign.matches:
            ti, di = np.array(assign.matches).T
            z = measurements_from_boxes(det_boxes[di])
            updated = kalman_update(TrackState(t.x[ti], t.P[ti]), z, self.kalman)
            t.x[ti], t.P[ti] = updated.x, updated.P
            t.hits[ti] += 1
            t.time_since_update[ti] = 0
            t.conf[ti] = det_conf[di]
        t.time_since_update[assign.unmatched_tracks] += 1
        new = assign.unmatched_detections
        if new:
            t = t.concat(TrackArrays.spawn(self._next_id, det_boxes[new], det_conf[new],
                                           self.kalman))
        spawned = list(range(self._next_id, self._next_id + len(new)))
        self._next_id += len(new)

        dead = TrackState(t.x, t.P).degenerate | (t.time_since_update > self.max_age)
        if dead.any():
            removed.extend(t.id[dead].tolist())
            t = t.select(~dead)
        t.confirmed |= t.hits >= self.min_hits
        self._tracks = t

        shown = np.flatnonzero(t.confirmed & (t.time_since_update == 0))
        boxes = boxes_from_states(t.x[shown])
        ground = None
        if self.projection is not None:
            ground = project_to_bev(self.projection, foot_point(boxes))
        self.last_spawned = spawned
        self.last_removed = removed
        return FrameTracks(ids=t.id[shown], boxes=boxes, conf=t.conf[shown], ground=ground)


def format_mot_line(frame: int, track_ids, boxes, conf) -> str:
    """The MOTChallenge result lines of one frame, each ending in a newline.

    `track_ids` are n ints, `boxes` an (n, 4) array of center-format
    (cx, cy, w, h) boxes and `conf` n confidences; coordinates and
    confidence are written at 2 decimals (`%.2f` rounds as `format` does).
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    left_top = (boxes[:2] - boxes[2:] / 2.0).tolist()
    fields = zip(track_ids, *left_top, *boxes[2:].tolist(), np.asarray(conf, dtype=float).tolist())
    line = f"{frame},%d,%.2f,%.2f,%.2f,%.2f,%.2f,-1,-1,-1\n"
    return line * len(boxes[0]) % tuple(itertools.chain.from_iterable(fields))
