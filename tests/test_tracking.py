"""Kalman filter, association, and tracker lifecycle tests.

The motion oracles are analytic straight-line trajectories: a synthetic
walker advancing a fixed number of pixels per frame, with exact boxes.
"""

from __future__ import annotations

import os
import re
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from boxes import box_rows, measure, state_from_box  # noqa: E402
from test_assignment import assert_index_arrays, brute_force  # noqa: E402

from crowdrisk.assignment import solve_assignment
from crowdrisk.geometry import BBox, iou, iou_matrix
from crowdrisk.tracking import (
    KalmanParams,
    NumericalUpdateError,
    SequencingError,
    Tracker,
    associate,
    degenerate,
    format_mot_line,
    kalman_predict,
    kalman_update,
)

# Exact measurements cannot use a strictly zero measurement noise past full
# observability (the innovation covariance collapses), so "noiseless" runs
# at the double-precision floor.
NOISELESS = KalmanParams(meas_noise=(1e-12,) * 4, process_noise=(0.0,) * 7)


def walker_box(frame: int, speed: float = 2.0, v: float = 50.0) -> tuple[float, ...]:
    return (speed * frame, v, 10.0, 20.0)


class TestKalmanPredict:
    def test_constant_velocity_propagation(self):
        x, _ = kalman_predict(np.array([0.0, 0.0, 4.0, 1.0, 1.0, 2.0, 0.0]), np.eye(7))
        assert x[:4].tolist() == [1.0, 2.0, 4.0, 1.0]
        assert x[4:].tolist() == [1.0, 2.0, 0.0]

    def test_zero_velocity_fixed_point(self):
        x, P = state_from_box((5, 5, 2, 2))
        x_out, P_out = kalman_predict(x, P)
        assert np.array_equal(x_out, x)
        assert np.all(np.diag(P_out) >= np.diag(P))  # covariance grows by Q

    def test_degenerate_area_flagged(self):
        x, _ = kalman_predict(np.array([0.0, 0.0, 4.0, 1.0, 0.0, 0.0, -5.0]), np.eye(7))
        assert x[2] == -1.0
        assert degenerate(x)

    def test_covariance_symmetry(self):
        rng = np.random.default_rng(2)
        x, P = state_from_box((0, 0, 3, 7))
        for k in range(30):
            x, P = kalman_predict(x, P)
            assert np.abs(P - P.T).max() < 1e-9
            if k % 3 == 0:
                x, P = kalman_update(x, P, measure((*rng.uniform(1, 9, 2), 3, 7)))
                assert np.abs(P - P.T).max() < 1e-9


class TestKalmanUpdate:
    def test_measurement_equal_to_prediction_keeps_mean(self):
        box = (4, 6, 3, 5)
        x, P = state_from_box(box)
        x_out, _ = kalman_update(x, P, measure(box))
        assert np.allclose(x_out, x, atol=1e-12)

    def test_huge_prior_variance_measurement_dominates(self):
        params = KalmanParams(init_state_var=1e9)
        x, P = state_from_box((0, 0, 2, 2), params)
        x, _ = kalman_update(x, P, measure((10, 0, 2, 2)), params)
        assert abs(x[0] - 10.0) < 1e-6

    def test_zero_noise_posterior_equals_measurement(self):
        params = KalmanParams(meas_noise=(0.0,) * 4)
        x, P = state_from_box((0, 0, 4, 4), params)
        meas = measure((10, 3, 6, 2))
        x, _ = kalman_update(x, P, meas, params)
        assert np.allclose(x[:4], [10, 3, 12, 3], atol=1e-12)

    def test_velocity_estimate_converges_on_walker(self):
        x, P = state_from_box(walker_box(0))
        for frame in range(1, 11):
            x, P = kalman_predict(x, P)
            x, P = kalman_update(x, P, measure(walker_box(frame)))
        assert abs(x[4] - 2.0) < 0.1

    def test_noiseless_consistency(self):
        x, P = state_from_box(walker_box(0), NOISELESS)
        errors = []
        for frame in range(1, 11):
            x, P = kalman_predict(x, P, NOISELESS)
            x, P = kalman_update(x, P, measure(walker_box(frame)), NOISELESS)
            errors.append(abs(x[0] - 2.0 * frame))
            assert np.abs(P - P.T).max() < 1e-9
        assert errors[9] < 1e-6
        for prev, cur in zip(errors[3:], errors[4:]):
            assert cur <= prev + 1e-12  # monotone once the state is observed

    def test_singular_innovation_raises(self):
        params = KalmanParams(meas_noise=(0.0,) * 4, process_noise=(0.0,) * 7)
        x, P = state_from_box(walker_box(0), params)
        with pytest.raises(NumericalUpdateError):
            for frame in range(1, 6):
                x, P = kalman_predict(x, P, params)
                x, P = kalman_update(x, P, measure(walker_box(frame)), params)


class TestAssociate:
    def test_identical_box_matches(self):
        box = np.array([[5, 5, 4, 4]])
        out = associate(box, box, iou_gate=0.3)
        assert out.matches.tolist() == [[0, 0]]

    def test_disjoint_boxes_unmatched(self):
        out = associate(np.array([[0, 0, 2, 2]]), np.array([[50, 50, 2, 2]]), iou_gate=0.3)
        assert out.matches.tolist() == []
        assert out.unmatched_tracks.tolist() == [0]
        assert out.unmatched_detections.tolist() == [0]

    def test_crossing_pairs_resolved_by_overlap(self):
        # two tracks and two detections; diagonal IoUs dominate
        tracks = np.array([[0, 0, 10, 10], [20, 0, 10, 10]], dtype=float)
        dets = np.array([[2, 0, 10, 10], [22, 0, 10, 10]], dtype=float)
        out = associate(tracks, dets, iou_gate=0.3)
        assert sorted(out.matches.tolist()) == [[0, 0], [1, 1]]
        # brute force over both pairings on the same cost, with the scalar iou
        t, d = [BBox(*b) for b in tracks], [BBox(*b) for b in dets]
        straight = iou(t[0], d[0]) + iou(t[1], d[1])
        crossed = iou(t[0], d[1]) + iou(t[1], d[0])
        assert straight > crossed

    def test_gate_forbids_weak_pairs(self):
        out = associate(np.array([[0, 0, 10, 10]]), np.array([[9, 0, 10, 10]]), iou_gate=0.3)
        assert out.matches.tolist() == []  # IoU 1/19 < 0.3, solver pairing stripped

    def test_empty_inputs(self):
        out = associate(np.zeros((0, 4)), np.zeros((0, 4)), iou_gate=0.3)
        assert out.matches.tolist() == []

    def test_results_are_index_arrays(self):
        """No tracks, no detections, and every solver pair gated away."""
        boxes = np.array([[0, 0, 10, 10], [100, 0, 10, 10]], dtype=float)
        far = boxes + [0, 500, 0, 0]
        assert_index_arrays(associate(np.zeros((0, 4)), boxes, 0.3), 0, 0, 2)
        assert_index_arrays(associate(boxes, np.zeros((0, 4)), 0.3), 0, 2, 0)
        gated = associate(boxes, far, 0.3)
        assert_index_arrays(gated, 0, 2, 2)
        assert gated.unmatched_tracks.tolist() == gated.unmatched_detections.tolist() == [0, 1]
        half = associate(boxes, np.array([boxes[1], far[0]]), 0.3)
        assert_index_arrays(half, 1, 1, 1)
        assert half.matches.tolist() == [[1, 0]]
        assert half.unmatched_tracks.tolist() == [0]
        assert half.unmatched_detections.tolist() == [1]


def tie_boxes(rng: np.random.Generator, count: int, pool: np.ndarray) -> np.ndarray:
    """(count, 4) center-format boxes: copies of pool boxes (exact IoU ties),
    boxes far from every other (all-1.0 cost rows), and random overlapping ones."""
    out = np.empty((count, 4))
    for b in range(count):
        kind = rng.integers(3)
        if kind == 0:
            out[b] = pool[rng.integers(len(pool))]
        elif kind == 1:
            out[b] = (1000.0 + 100.0 * rng.integers(1000), 1000.0, 10.0, 20.0)
        else:
            out[b] = (rng.uniform(0, 30), rng.uniform(0, 30), rng.uniform(5, 20), rng.uniform(10, 30))
    return out


class TestAssociateAgainstBruteForce:
    """`associate` against the brute-force optimum of 1 - IoU, with the pairs
    below the gate moved to unmatched.

    The draws tie often, and float rounding leaves some exactly tight cells
    of the solver's reduced matrix a few ulps above zero; the solver reads
    cells within its stated tolerance as tight, so every draw, gated or not,
    must give the lexicographically smallest optimum that brute force finds.
    """

    def test_random_boxes_with_ties(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n, m = (int(v) for v in rng.integers(1, 6, size=2))
            self.check(rng, n, m)

    def test_many_tracks_few_detections(self):
        """Most tracks are left over, so the tie-break runs through the
        padding columns that unmatched tracks hold."""
        rng = np.random.default_rng(2025)
        for _ in range(300):
            self.check(rng, int(rng.integers(1, 8)), int(rng.integers(1, 3)))

    @staticmethod
    def check(rng: np.random.Generator, n: int, m: int) -> None:
        pool = tie_boxes(rng, 3, np.array([[10.0, 10.0, 10.0, 20.0]]))
        tracks, dets = tie_boxes(rng, n, pool), tie_boxes(rng, m, pool)
        overlap = iou_matrix(tracks, dets)
        cost = 1.0 - overlap
        _, pairs = brute_force(cost)
        assert solve_assignment(cost).matches.tolist() == pairs
        for gate in (0.0, 0.3, 1.0):
            out = associate(tracks, dets, iou_gate=gate)
            matches = out.matches.tolist()
            assert matches == [[i, j] for i, j in pairs if overlap[i, j] >= gate]
            assert out.unmatched_tracks.tolist() == sorted(set(range(n)) - {i for i, _ in matches})
            assert out.unmatched_detections.tolist() == sorted(
                set(range(m)) - {j for _, j in matches})


class TestTrackerLifecycle:
    def test_steady_box_confirms_with_stable_id(self):
        tracker = Tracker(min_hits=3)
        box = box_rows((50, 50, 10, 20))
        assert len(tracker.step(box, 1)) == 0
        assert len(tracker.step(box, 2)) == 0
        out = tracker.step(box, 3)
        assert len(out) == 1
        assert out.ids[0] == 1
        for frame in range(4, 10):
            out = tracker.step(box, frame)
            assert out.ids.tolist() == [1]

    def test_gap_of_max_age_preserves_id(self):
        tracker = Tracker(min_hits=1, max_age=5)
        box = box_rows((50, 50, 10, 20))
        for frame in range(1, 4):
            out = tracker.step(box, frame)
        assert out.ids[0] == 1
        frame = 4
        for _ in range(5):  # exactly max_age missed frames
            tracker.step([], frame)
            frame += 1
        assert not tracker.idle
        out = tracker.step(box, frame)
        assert out.ids.tolist() == [1]

    def test_gap_of_max_age_plus_one_reassigns(self):
        tracker = Tracker(min_hits=1, max_age=5)
        assert tracker.idle
        box = box_rows((50, 50, 10, 20))
        for frame in range(1, 4):
            tracker.step(box, frame)
        frame = 4
        for _ in range(6):  # max_age + 1 missed frames
            tracker.step([], frame)
            frame += 1
        assert tracker.idle
        out = tracker.step(box, frame)
        assert out.ids.tolist() == [2]

    def test_two_parallel_walkers_no_switches(self):
        tracker = Tracker(min_hits=3, max_age=10)
        ids_by_lane: dict[float, set[int]] = {50.0: set(), 300.0: set()}
        for frame in range(1, 101):
            dets = box_rows(walker_box(frame, v=50.0), walker_box(frame, v=300.0))
            out = tracker.step(dets, frame)
            for tid, cy in zip(out.ids.tolist(), out.boxes[:, 1].tolist()):
                lane = min(ids_by_lane, key=lambda v: abs(cy - v))
                ids_by_lane[lane].add(tid)
        assert len(ids_by_lane[50.0]) == 1
        assert len(ids_by_lane[300.0]) == 1
        assert ids_by_lane[50.0] != ids_by_lane[300.0]

    def test_out_of_order_frame_raises(self):
        tracker = Tracker()
        tracker.step([], 5)
        with pytest.raises(SequencingError):
            tracker.step([], 5)
        with pytest.raises(SequencingError):
            tracker.step([], 3)

    def test_ids_strictly_increase(self):
        tracker = Tracker(min_hits=1, max_age=0)
        seen: list[int] = []
        rng = np.random.default_rng(31)
        for frame in range(1, 40):
            # far-apart short-lived boxes: every appearance spawns a new id
            dets = box_rows((float(rng.integers(0, 5000)), 50, 10, 10)) if frame % 2 else []
            seen.extend(tracker.step(dets, frame).ids.tolist())
        assert seen == sorted(set(seen))

    def test_determinism_identical_streams(self):
        def run() -> list[str]:
            tracker = Tracker(min_hits=2)
            lines = []
            rng = np.random.default_rng(8)
            for frame in range(1, 60):
                dets = box_rows(*(
                    (10.0 * k + rng.uniform(-1, 1), 50 + rng.uniform(-1, 1), 8, 16)
                    for k in range(4)
                ))
                out = tracker.step(dets, frame)
                lines.append(format_mot_line(frame, out.ids.tolist(), out.boxes, out.conf))
            return lines

        assert run() == run()

    def test_snapshot_ground_is_projected_foot_point(self):
        tracker = Tracker(projection=np.eye(3), min_hits=1)
        out = tracker.step(box_rows((10, 10, 4, 8)), 1)
        # foot point of the posterior box: first update equals the measurement
        assert out.ground[0, 0] == pytest.approx(10.0, abs=1e-9)
        assert out.ground[0, 1] == pytest.approx(14.0, abs=1e-9)

    def test_tracks_view_reports_lifecycle(self):
        tracker = Tracker(min_hits=2)
        box = box_rows((50, 50, 10, 20), conf=0.8)
        tracker.step(box, 1)
        t = tracker.tracks
        assert (t.id.tolist(), t.hits.tolist()) == ([1], [1])
        assert t.confirmed.tolist() == [False]
        tracker.step(box, 2)
        tracker.step([], 3)
        t = tracker.tracks
        assert (t.hits.tolist(), t.time_since_update.tolist()) == ([2], [1])
        assert t.confirmed.tolist() == [True]
        assert t.conf.tolist() == [0.8]
        assert t.x.shape == (1, 7) and t.P.shape == (1, 7, 7)
        t.x[:] = 0.0  # a copy: the tracker's own arrays stay as they were
        assert tracker.tracks.x[0, 0] == 50.0

    @pytest.mark.parametrize("rows", [
        np.array([[10.0, 10.0, 4.0, 8.0]] * 5),  # the conf column forgotten
        np.array([10.0, 10.0, 4.0, 8.0, 0.9]),  # one row, not an (m, 5) array
        np.zeros((2, 6)),
    ])
    def test_wrong_width_detections_rejected(self, rows):
        tracker = Tracker(min_hits=1)
        with pytest.raises(ValueError, match=rf"\(n, 5\).*{re.escape(str(rows.shape))}"):
            tracker.step(rows, 1)
        assert tracker.idle
        assert len(tracker.step(box_rows((10, 10, 4, 8)), 1)) == 1  # frame 1 not consumed


def mot_line_fstring(frame: int, track_id: int, box, conf: float) -> str:
    """Reference: the per-track f-string format_mot_line used before it formatted whole frames."""
    cx, cy, w, h = box
    left = cx - w / 2.0
    top = cy - h / 2.0
    return f"{frame},{track_id},{left:.2f},{top:.2f},{w:.2f},{h:.2f},{conf:.2f},-1,-1,-1"


class TestMotLine:
    def test_fixed_decimals(self):
        text = format_mot_line(3, [7], np.array([[125.0, 250.0, 50.0, 100.0]]), np.array([0.9]))
        assert text == "3,7,100.00,200.00,50.00,100.00,0.90,-1,-1,-1\n"

    @pytest.mark.parametrize("ids,boxes,conf,message", [
        ([1, 2], (1, 8), [0.5, 0.5], "(n, 4) array, got shape (1, 8)"),  # once two lines
        ([1, 2], (1, 4), [0.5], "2 ids, 1 boxes"),  # once dropped id 2
        ([1], (1, 4), [0.5, 0.5], "conf shape (2,)"),
        ([1], (1, 4), [[0.5]], "conf shape (1, 1)"),
        ([1], (4,), [0.5], "(n, 4) array, got shape (4,)"),
    ])
    def test_rejects_mismatched_rows(self, ids, boxes, conf, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            format_mot_line(1, ids, np.ones(boxes), conf)

    @pytest.mark.parametrize("seed", range(4))
    def test_frame_text_matches_per_line_fstring(self, seed):
        rng = np.random.default_rng(seed)
        # exact binary halves at the third decimal, decimal .xx5 values, and plain draws
        halves = np.array([0.125, 0.375, 0.625, 0.875, 0.005, 0.015, 0.995, 2.675])
        for n in [0, 1, 2, 7, 40]:
            kind = rng.integers(0, 3, size=(n, 4))
            exact = rng.integers(-900, 900, size=(n, 4)) + rng.choice(halves, size=(n, 4))
            decimal = np.round(rng.uniform(-900, 900, size=(n, 4)), 2) + 0.005
            values = np.where(kind == 0, exact,
                              np.where(kind == 1, decimal, rng.uniform(-1e4, 1e4, size=(n, 4))))
            boxes = np.column_stack([values[:, :2], np.abs(values[:, 2:]) + 0.25])
            conf = np.where(rng.random(n) < 0.5, rng.choice(halves[:4], n) / 10 + 0.5,
                            rng.random(n))
            ids = rng.choice([1, 9, 10**6 + 3, 2**40 + 1, 10**15], size=n).tolist()
            frame = int(rng.integers(1, 10**7))
            want = "".join(mot_line_fstring(frame, tid, box, c) + "\n"
                           for tid, box, c in zip(ids, boxes.tolist(), conf.tolist()))
            assert format_mot_line(frame, ids, boxes, conf) == want
