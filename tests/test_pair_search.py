"""The x-sorted pair sweep against the dense oracles of `dense.py`.

`candidate_pairs` finds close points and overlapping boxes without a matrix
of all pairs.  Its callers must give the same answers, bit for bit and row
for row, as the dense forms it replaced: the distancing rules, `iou_matrix`,
and a whole pipeline run that uses both.  Memory on a very crowded frame is
checked with tracemalloc peaks, which repeat exactly; nothing here is timed.
"""

from __future__ import annotations

import itertools
import os
import sys
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))

import dense  # noqa: E402
from synthetic import crowd_walkers, mot_lines, scene_config  # noqa: E402

import crowdrisk.distancing  # noqa: E402
import crowdrisk.tracking  # noqa: E402
from crowdrisk import geometry  # noqa: E402
from crowdrisk.config import load_config  # noqa: E402
from crowdrisk.detections import parse_mot_detections  # noqa: E402
from crowdrisk.distancing import (  # noqa: E402
    CoupleRegistry,
    DistancePolicy,
    FramePositions,
    ZoneLabel,
    classify_zones,
    pairwise_violations,
    update_couples,
)
from crowdrisk.geometry import BBox, candidate_pairs, iou, iou_matrix  # noqa: E402
from crowdrisk.pipeline import run_pipeline  # noqa: E402

# r = 20 px, couple_d_px = 10 px; a pair is a couple after 126 close frames
POLICY = DistancePolicy(xi=10.0, r=20.0)
COUPLE_FRAMES = int(POLICY.couple_frames) + 1
SEARCH = settings(derandomize=True, max_examples=150, deadline=None)

# integer coordinates put many pairs exactly 10 or 20 px apart: along x,
# along y, and on 6-8-10 and 12-16-20 diagonals
lattice = st.integers(-40, 40).map(float)
coordinate = st.one_of(lattice, st.floats(-1e4, 1e4, allow_nan=False))


@st.composite
def frames(draw) -> FramePositions:
    """0-40 people: on the integer lattice, on one vertical line, at any
    float position, or drawn with repeats from a pool of a few points."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["lattice", "line", "float", "pool"]))
    if kind == "pool":
        pool = draw(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=5))
        xy = [draw(st.sampled_from(pool)) for _ in range(n)]
    elif kind == "line":
        x = draw(coordinate)
        xy = [(x, draw(lattice)) for _ in range(n)]
    else:
        c = lattice if kind == "lattice" else coordinate
        xy = [(draw(c), draw(c)) for _ in range(n)]
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return FramePositions(1, ids, np.array(xy, dtype=float).reshape(n, 2))


def at_frame(pos: FramePositions, frame: int) -> FramePositions:
    return FramePositions(frame, pos.ids, pos.xy)


class TestCandidatePairs:
    @SEARCH
    @given(st.lists(coordinate, max_size=30), st.lists(coordinate, max_size=30),
           st.sampled_from([0.0, 6.0, 10.0, 20.0, 1e9]))
    def test_every_pair_within_reach_once_in_order(self, left, right, reach):
        left, right = np.array(left), np.array(right)
        i, j = candidate_pairs(left, right, reach)
        found = list(zip(i.tolist(), j.tolist()))
        assert len(set(found)) == len(found)
        within = {(a, b) for a, b in itertools.product(range(len(left)), range(len(right)))
                  if abs(left[a] - right[b]) <= reach}
        assert within <= set(found)
        assert (np.diff(i) >= 0).all()
        same_i = np.diff(i) == 0
        assert (np.diff(right[j])[same_i] >= 0).all()

    def test_everyone_in_one_band_is_every_pair(self):
        x = np.zeros(7)
        i, j = candidate_pairs(x, x, 0.0)
        assert len(i) == 49


class TestDistancingAgainstDense:
    @pytest.mark.parametrize("xy", [
        [], [(0, 0)], [(0, 0), (20, 0)], [(0, 0), (0, 20)], [(0, 0), (12, 16)],
        [(0, 0), (10, 0)], [(0, 0), (0, -10)], [(-6, -8), (0, 0)], [(0, 0), (0, 0)],
        [(-40, -40), (-28, -24), (-28, -24)], [(0, 0), (20.000001, 0)],
        # x + 20 rounds below the second point, whose difference rounds to 20
        [(-28.329282336421898, 0), (-8.329282336421896, 0)],
    ])
    def test_small_frames(self, xy):
        self.check(FramePositions(1, list(range(len(xy))), np.array(xy, float).reshape(-1, 2)))

    @pytest.mark.parametrize("xy", [
        [(0, 0), (8, 0), (4, 24)],  # outsider exactly on the r + d_c/2 circle
        [(0, 0), (8, 0), (4, 24.000001)],
        [(0, 0), (8, 0), (0, 28), (8, 28)],  # circles exactly touching: r + 4 + 4
        [(0, 0), (8, 0), (0, 28.000001), (8, 28.000001)],
        [(0, 0), (2, 0), (30.5, -9), (30.5, 9)],  # 2 and 18 px wide, circles 0.5 px apart
        # (r + d_k/2) + d_l/2 rounds one ulp below the midpoint gap, (r + d_l/2) + d_k/2 onto it
        [(0.0, 0.0), (6.449148874479812, 0.0), (-1.0459581132393447, 27.495106987719158),
         (7.495106987719157, 27.495106987719158)],
    ])
    def test_couple_circles(self, xy):
        pos = FramePositions(1, list(range(len(xy))), np.array(xy, float))
        self.check(pos, flag=[(0, 1), (2, 3)])

    @SEARCH
    @given(frames(), st.integers(0, 2**32 - 1))
    def test_random_frames(self, pos, seed):
        rng = np.random.default_rng(seed)
        pairs = itertools.combinations(sorted(pos.ids), 2)
        self.check(pos, flag=[pair for pair in pairs if rng.random() < 0.1])

    def check(self, pos: FramePositions, flag=()) -> None:
        violations = pairwise_violations(pos, POLICY)
        assert violations.shape == (len(violations), 2)
        assert violations.tolist() == dense.close_pairs(pos, POLICY.r).tolist()

        registry, counters = CoupleRegistry(), {}
        for frame in range(1, COUPLE_FRAMES + 1):
            update_couples(registry, at_frame(pos, frame), POLICY)
            counters = dense.advance_couples(counters, at_frame(pos, frame), POLICY)
        assert list(registry._counters.items()) == list(counters.items())
        assert classify_zones(pos, violations, registry, POLICY) == \
            dense.classify_zones(pos, registry, POLICY)

        # couples flagged earlier whose members may now stand far apart
        flagged = CoupleRegistry()
        flagged._counters = {pair: COUPLE_FRAMES for pair in flag if set(pair) <= set(pos.ids)}
        assert classify_zones(pos, violations, flagged, POLICY) == \
            dense.classify_zones(pos, flagged, POLICY)


@st.composite
def box_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of 0-12 boxes: on a small integer lattice (touching edges,
    nested and identical boxes), huge (sides up to 1e154, where the union
    overflows), or at any float position; some columns copy rows."""
    kind = draw(st.sampled_from(["lattice", "huge", "float"]))
    if kind == "lattice":
        centre, side = st.integers(-6, 6).map(float), st.sampled_from([2.0, 4.0, 6.0, 12.0])
    elif kind == "huge":
        centre = st.one_of(st.just(0.0), st.floats(-1e154, 1e154))
        side = st.one_of(st.just(1e154), st.floats(1e150, 1e154))
    else:
        centre, side = st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)
    box = st.tuples(centre, centre, side, side)
    rows = draw(st.lists(box, max_size=12))
    cols = draw(st.lists(box, max_size=12))
    cols += draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    return np.array(rows).reshape(-1, 4), np.array(cols).reshape(-1, 4)


class TestIoUMatrixAgainstDense:
    @SEARCH
    @given(box_pairs())
    def test_cells_equal_scalar_and_dense(self, boxes):
        rows, cols = boxes
        with np.errstate(over="ignore"):  # huge boxes overflow the union, as they may
            want = dense.dense_iou_matrix(rows, cols)
            for i, j in itertools.product(range(len(rows)), range(len(cols))):
                assert want[i, j] == iou(BBox(*rows[i]), BBox(*cols[j]))
            # the cut between evaluating every cell and sweeping, at both extremes
            for cut in (0, 10**9):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(geometry, "_SWEEP_MIN_CELLS", cut)
                    got = iou_matrix(rows, cols)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_touching_nested_and_identical(self):
        rows = np.array([[0.0, 0.0, 2.0, 2.0]])
        cols = np.array([[2.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]])
        for cut in (0, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geometry, "_SWEEP_MIN_CELLS", cut)
                assert iou_matrix(rows, cols).tolist() == [[0.0, 0.25, 1.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_boxes_and_non_positive_sides(self, bad):
        box = np.array([[1.0, 1.0, 2.0, 2.0]])
        broken = box.copy()
        broken[0, 2 if bad <= 0 else 0] = bad
        with pytest.raises(ValueError, match="finite with positive sides"):
            iou_matrix(box, broken)


def crowded_frame(people: int, seed: int = 5) -> tuple[FramePositions, CoupleRegistry]:
    """`people` on a field with crowd-jsonl's density (200 on 1920 x 1080),
    half of them in flagged couples 8 px apart."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(people / 200)
    singles, couples = people // 2, people // 4
    centres = rng.uniform(0, 1, size=(singles + couples, 2)) * [1920 * scale, 1080 * scale]
    xy = np.concatenate([centres[:singles], centres[singles:] - [4, 0], centres[singles:] + [4, 0]])
    registry = CoupleRegistry()
    for k in range(couples):
        registry._counters[(singles + k, singles + couples + k)] = COUPLE_FRAMES
    return FramePositions(1, list(range(len(xy))), xy), registry


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCrowdedFrameMemory:
    def test_distancing_5000_people_under_50_mb(self):
        pos, registry = crowded_frame(5000)

        def rules():
            violations = pairwise_violations(pos, POLICY)
            update_couples(registry, pos, POLICY)
            labels = classify_zones(pos, violations, registry, POLICY)
            assert sum(z is ZoneLabel.POTENTIALLY_RISKY for z in labels.values()) > 0

        assert traced_peak(rules) < 50 * 2**20

    def test_iou_matrix_2000_squared_at_most_twice_its_output(self):
        pos, _ = crowded_frame(2000)
        boxes = np.concatenate([pos.xy, np.tile([24.0, 60.0], (len(pos.xy), 1))], axis=1)
        moved = boxes + np.random.default_rng(6).uniform(-1, 1, boxes.shape) * [1, 1, 0, 0]
        output = len(boxes) * len(moved) * 8
        assert traced_peak(lambda: iou_matrix(boxes, moved)) <= 2 * output


def test_pipeline_run_equals_dense_oracles(tmp_path):
    """A 70-frame, 200-person crowd with couples, run as is and with the pair
    sweep and iou_matrix replaced by their dense oracles: every artifact
    must be byte-identical, so a row order that slips between layers shows."""
    walkers = crowd_walkers(singles=100, couples=50, seed=3)
    ingest = parse_mot_detections(mot_lines(walkers, 70, seed=4))
    cfg = tmp_path / "crowd.cfg"
    cfg.write_text(scene_config(grid=256, fps=10.0) + "cell_scale = 4.0\n")
    config = load_config(str(cfg), env={})

    summary = run_pipeline(config, ingest, out_dir=str(tmp_path / "swept"))
    assert summary.red_person_frames > 0 and summary.yellow_pair_frames > 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crowdrisk.distancing, "candidate_pairs", dense.all_pairs)
        mp.setattr(crowdrisk.tracking, "iou_matrix", dense.dense_iou_matrix)
        run_pipeline(config, ingest, out_dir=str(tmp_path / "dense"))

    names = sorted(os.listdir(tmp_path / "swept"))
    assert names == sorted(os.listdir(tmp_path / "dense")) and len(names) >= 12
    for name in names:
        swept = (tmp_path / "swept" / name).read_bytes()
        assert swept == (tmp_path / "dense" / name).read_bytes(), name
