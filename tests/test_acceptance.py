"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  Detector-dependent accuracy figures (detection precision/recall,
couple-detection accuracy) are out of scope by design: detections are
ingested, not computed, and the property gates below stand in their place.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from boxes import box_rows, measure, state_from_box  # noqa: E402
from synthetic import crowd_stream_lines, scene_config  # noqa: E402

from crowdrisk.assignment import solve_assignment
from crowdrisk.config import load_config
from crowdrisk.detections import parse_mot_detections
from crowdrisk.distancing import (
    CoupleRegistry,
    DistancePolicy,
    FramePositions,
    ZoneLabel,
    classify_zones,
    frame_stats,
    pairwise_violations,
    update_couples,
)
from crowdrisk.geometry import (
    BBox,
    ciou_loss,
    estimate_homography,
    iou,
    project_to_bev,
)
from crowdrisk.pipeline import run_pipeline
from crowdrisk.rasters import read_value_table
from crowdrisk.risk import CrowdGrid, RiskGrid, accumulate_tracking, crowd_step, normalize
from crowdrisk.tracking import KalmanParams, Tracker, kalman_predict, kalman_update

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DET = os.path.join(DATA_DIR, "synthetic_300.det")
GOLDEN_CFG = os.path.join(DATA_DIR, "synthetic.cfg")


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return wrapper

    return decorate


@criterion("assignment optimality: 1000 random matrices vs brute force, exact, < 5 s")
def test_assignment_optimality():
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cases.append(rng.uniform(0, 100, size=(n, m)))

    perms_cache: dict[tuple[int, int], list] = {}

    def brute_minimum(cost):
        """Exhaustive minimum; totals via fsum so comparisons are order-free."""
        n, m = cost.shape
        key = (n, m)
        if key not in perms_cache:
            if n <= m:
                perms_cache[key] = [
                    list(zip(range(n), p)) for p in itertools.permutations(range(m), n)
                ]
            else:
                perms_cache[key] = [
                    list(zip(p, range(m))) for p in itertools.permutations(range(n), m)
                ]
        return min(math.fsum(cost[i, j] for i, j in pairs) for pairs in perms_cache[key])

    start = time.perf_counter()
    results = [solve_assignment(cost) for cost in cases]
    solver_elapsed = time.perf_counter() - start
    assert solver_elapsed < 5.0, f"solver took {solver_elapsed:.2f}s"

    for cost, result in zip(cases, results):
        total = math.fsum(cost[i, j] for i, j in result.matches)
        assert total == brute_minimum(cost)  # tolerance 0


@criterion("IoU/CIoU: 10000 random pairs + worked examples within 1e-9")
def test_iou_ciou_suite():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        a = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.1, 40, 2))
        b = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.1, 40, 2))
        val = iou(a, b)
        assert val == iou(b, a)
        assert 0.0 <= val <= 1.0
        out = ciou_loss(a, b)
        assert out.loss >= 1.0 - out.iou - 1e-12

    assert abs(iou(BBox(1, 1, 2, 2), BBox(2, 1, 2, 2)) - 1.0 / 3.0) < 1e-9
    concentric = ciou_loss(BBox(0, 0, 2, 2), BBox(0, 0, 4, 4))
    assert abs(concentric.loss - 0.75) < 1e-9
    aspect = ciou_loss(BBox(0, 0, 2, 4), BBox(0, 0, 4, 2))
    expected_v = (4 / math.pi**2) * (math.atan(2) - math.atan(0.5)) ** 2
    assert abs(aspect.v - expected_v) < 1e-9


@criterion("homography: 1000 round trips < 1e-9, scalar/matrix < 1e-12, DLT < 1e-8")
def test_homography_round_trip():
    rng = np.random.default_rng(321)
    done = 0
    while done < 1000:
        M = rng.uniform(-2, 2, size=(3, 3))
        if abs(np.linalg.det(M)) < 1e-2:
            continue
        x, y = rng.uniform(-5, 5, size=2)
        den = M[2, 0] * x + M[2, 1] * y + M[2, 2]
        if abs(den) < 1e-3:  # horizon points excluded
            continue
        (fwd_x, fwd_y), = project_to_bev(M, [(x, y)])
        back_m = np.linalg.inv(M)
        den_back = back_m[2, 0] * fwd_x + back_m[2, 1] * fwd_y + back_m[2, 2]
        if abs(den_back) < 1e-3:
            continue
        (back_x, back_y), = project_to_bev(back_m, [(fwd_x, fwd_y)])
        assert math.hypot(back_x - x, back_y - y) < 1e-9
        done += 1

    # scalar vs matrix agreement: well-conditioned points (the 1e-12 bound is
    # absolute, so near-horizon denominators that amplify rounding are out)
    done = 0
    while done < 1000:
        M = rng.uniform(-2, 2, size=(3, 3))
        if abs(np.linalg.det(M)) < 1e-2:
            continue
        x, y = rng.uniform(-2, 2, size=2)
        if abs(M[2, 0] * x + M[2, 1] * y + M[2, 2]) < 0.5:
            continue
        (fwd_x, fwd_y), = project_to_bev(M, [(x, y)])
        hom = M @ np.array([x, y, 1.0])
        assert abs(fwd_x - hom[0] / hom[2]) < 1e-12
        assert abs(fwd_y - hom[1] / hom[2]) < 1e-12
        done += 1

    recovered = 0
    while recovered < 100:
        M_true = rng.uniform(-1, 1, size=(3, 3))
        M_true[2, 2] = 1.0
        if abs(np.linalg.det(M_true)) < 1e-2:
            continue
        pts = rng.uniform(-3, 3, size=(6, 2))
        pairs = []
        ok = True
        for x, y in pts:
            hom = M_true @ np.array([x, y, 1.0])
            if abs(hom[2]) < 1e-3:
                ok = False
                break
            pairs.append(((x, y), (hom[0] / hom[2], hom[1] / hom[2])))
        if not ok:
            continue
        M_est = estimate_homography(pairs)
        assert np.abs(M_est - M_true).max() < 1e-8
        recovered += 1


@criterion("Kalman consistency: noiseless walker, error < 1e-6 by update 10, P symmetric 1e-9")
def test_kalman_consistency():
    params = KalmanParams(meas_noise=(1e-12,) * 4, process_noise=(0.0,) * 7)
    state = state_from_box((0.0, 50.0, 10.0, 20.0), params)
    error = None
    for frame in range(1, 11):
        state = kalman_predict(state, params)
        assert np.abs(state.P - state.P.T).max() < 1e-9
        state = kalman_update(state, measure((2.0 * frame, 50.0, 10.0, 20.0)), params)
        assert np.abs(state.P - state.P.T).max() < 1e-9
        error = math.hypot(state.u - 2.0 * frame, state.v - 50.0)
    assert error is not None and error < 1e-6


@criterion("tracker integrity: 2 walkers -> 2 ids, 0 switches; occlusion boundary at max_age")
def test_tracker_integrity():
    tracker = Tracker(min_hits=3, max_age=10)
    ids_by_lane: dict[float, set[int]] = {50.0: set(), 300.0: set()}
    for frame in range(1, 101):
        dets = box_rows((2.0 * frame, 50.0, 10.0, 20.0), (2.0 * frame, 300.0, 10.0, 20.0))
        out = tracker.step(dets, frame)
        for tid, cy in zip(out.ids.tolist(), out.boxes[:, 1].tolist()):
            lane = min(ids_by_lane, key=lambda v: abs(cy - v))
            ids_by_lane[lane].add(tid)
    all_ids = ids_by_lane[50.0] | ids_by_lane[300.0]
    assert len(all_ids) == 2
    assert len(ids_by_lane[50.0]) == 1 and len(ids_by_lane[300.0]) == 1

    def run_gap(gap: int) -> tuple[int, int]:
        tracker = Tracker(min_hits=1, max_age=5)
        box = box_rows((50.0, 50.0, 10.0, 20.0))
        frame = 0
        for frame in range(1, 4):
            before = tracker.step(box, frame).ids[0]
        for _ in range(gap):
            frame += 1
            tracker.step([], frame)
        after = tracker.step(box, frame + 1).ids[0]
        return before, after

    before, after = run_gap(5)  # gap == max_age
    assert before == after
    before, after = run_gap(6)  # gap == max_age + 1
    assert before != after


@criterion("distancing oracle: 500 random frames vs naive pass; boundary == r violates")
def test_distancing_oracle():
    policy = DistancePolicy(xi=10.0, r=20.0)
    rng = np.random.default_rng(4242)
    for trial in range(500):
        n = int(rng.integers(0, 51))
        ids = [int(i) for i in rng.choice(5000, size=n, replace=False)]
        xy = np.array([rng.uniform(0, 400, 2) for _ in ids]).reshape(n, 2)
        pos = FramePositions(trial + 1, ids, xy)
        naive = set()
        for (ia, pa), (ib, pb) in itertools.combinations(zip(pos.ids, pos.xy.tolist()), 2):
            if math.sqrt((pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2) <= policy.r:
                naive.add((min(ia, ib), max(ia, ib)))
        found = pairwise_violations(pos, policy)
        assert {tuple(sorted((ids[a], ids[b]))) for a, b in found.tolist()} == naive
        labels = classify_zones(pos, found, CoupleRegistry(), policy)
        assert set(labels) == set(ids)
        stats = frame_stats(labels)
        assert stats.total == stats.red + 2 * stats.yellow_pairs + stats.green

    def pair_at(y: float) -> FramePositions:
        return FramePositions(1, [1, 2], np.array([[0.0, 0.0], [0.0, y]]))

    assert pairwise_violations(pair_at(20.0), policy).tolist() == [[0, 1]]
    assert len(pairwise_violations(pair_at(20.0 + 1e-7), policy)) == 0


@criterion("couple rule: 150 frames couples, 100 frames does not, 1.5 m never")
def test_couple_rule():
    policy = DistancePolicy(xi=10.0, r=20.0, couple_d=1.0, couple_eps=5.0, fps=25.0)

    def run(frames: int, separation_m: float) -> bool:
        registry = CoupleRegistry()
        for k in range(frames):
            xy = np.array([[0.0, 0.0], [separation_m * policy.xi, 0.0]])
            update_couples(registry, FramePositions(k + 1, [1, 2], xy), policy)
        return registry.is_couple(1, 2, policy)

    assert run(150, 0.5) is True  # 150 > 125 qualifying frames
    assert run(100, 0.5) is False  # 100 <= 125
    assert run(500, 1.5) is False  # proximity precondition fails


@criterion("risk grids: mass 6T exact, crowd steady state within 1%, exact normalize bounds")
def test_risk_grids():
    grid = RiskGrid(64, 64)
    for k in range(500):
        accumulate_tracking(grid, FramePositions(k + 1, [1], np.array([[32.0, 32.0]])))
    assert grid.values.sum() == 6.0 * 500

    crowd = CrowdGrid(64, 64, decay_gamma=0.99)
    for k in range(2000):
        crowd_step(crowd, FramePositions(k + 1, [1], np.array([[32.0, 32.0]])))
    limit = 2.0 / (1.0 - 0.99)
    assert abs(crowd.values[32, 32] - limit) / limit < 0.01

    rng = np.random.default_rng(8)
    for _ in range(200):
        X = rng.normal(size=(9, 9)) * rng.uniform(0.1, 100)
        if X.max() == X.min():
            continue
        out = normalize(X, 0.0, 120.0)
        assert out.min() == 0.0
        assert out.max() == 120.0


@criterion("determinism: bundled 300-frame sequence byte-identical across runs")
def test_determinism_golden(tmp_path):
    ingest = parse_mot_detections(GOLDEN_DET)
    outputs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        run_pipeline(load_config(GOLDEN_CFG, env={}), ingest, out_dir=out)
        blobs = {}
        for name in ("stats.csv", "tracks.txt", "tracking_grid.txt",
                     "violation_grid.txt", "crowd_grid.txt", "longterm_crowd.txt"):
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        outputs.append(blobs)
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs"
    # sanity: the value tables parse back and carry mass
    assert read_value_table(os.path.join(tmp_path, "a", "tracking_grid.txt")).sum() > 0


@criterion("throughput: 7530 frames / ~150k detections >= 200 fps with heatmaps enabled")
def test_throughput(tmp_path):
    cfg_path = tmp_path / "dense.cfg"
    cfg_path.write_text(scene_config(grid=640))
    config = load_config(str(cfg_path), env={})
    lines = crowd_stream_lines(7530, lanes=20)
    start = time.perf_counter()
    ingest = parse_mot_detections(lines)
    summary = run_pipeline(config, ingest, out_dir=str(tmp_path / "out"))
    elapsed = time.perf_counter() - start
    fps = summary.frames_processed / elapsed
    assert summary.frames_processed == 7530
    assert abs(summary.detections_ingested - 150_000) < 5_000
    assert fps >= 200.0, f"throughput {fps:.0f} fps < 200 fps"
    print(f"  (throughput: {fps:.0f} fps over {summary.detections_ingested} detections)")
