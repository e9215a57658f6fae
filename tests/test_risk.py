"""Risk grid accumulation, decay, normalization and the combined violation grid."""

from __future__ import annotations

import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crowdrisk.distancing import FramePositions, ZoneLabel
from crowdrisk.geometry import GroundPoint
from crowdrisk.risk import (
    CrowdGrid,
    LongTermCrowd,
    RiskGrid,
    ViolationGrid,
    accumulate_tracking,
    accumulate_violations,
    advance_empty,
    crowd_step,
    decay_sum,
    grid_zeros,
    normalize,
    stamp_kernel,
)


def positions(points: list[tuple[float, float]], frame: int = 1) -> FramePositions:
    return FramePositions.from_pairs(
        frame, [(i, GroundPoint(*p)) for i, p in enumerate(points)]
    )


class TestStampKernel:
    def test_interior_stamp(self):
        grid = RiskGrid(11, 11)
        stamp_kernel(grid, (5, 5))
        assert grid.values[5, 5] == 2
        assert grid.values[5, 4] == grid.values[5, 6] == 1
        assert grid.values[4, 5] == grid.values[6, 5] == 1
        assert grid.values[4, 4] == grid.values[4, 6] == 0
        assert grid.values[6, 4] == grid.values[6, 6] == 0
        assert grid.values.sum() == 6

    def test_additivity(self):
        grid = RiskGrid(11, 11)
        stamp_kernel(grid, (5, 5))
        stamp_kernel(grid, (5, 5))
        assert grid.values[5, 5] == 4
        assert grid.values[4, 5] == 2

    def test_corner_clip(self):
        grid = RiskGrid(8, 8)
        stamp_kernel(grid, (0, 0))
        assert grid.values.sum() == 4  # center 2 plus two in-bounds neighbors

    def test_out_of_bounds_counted(self):
        grid = RiskGrid(8, 8)
        stamp_kernel(grid, (9, 3))
        assert grid.values.sum() == 0
        assert grid.dropped == 1


class TestAccumulateTracking:
    def test_no_people_no_change(self):
        grid = RiskGrid(16, 16)
        accumulate_tracking(grid, positions([]))
        assert grid.values.sum() == 0

    def test_steady_person_linear_growth(self):
        grid = RiskGrid(16, 16)
        for k in range(10):
            accumulate_tracking(grid, positions([(7.3, 7.8)], frame=k + 1))
        assert grid.values[7, 7] == 20  # center weight 2 per frame

    def test_three_people_mass(self):
        grid = RiskGrid(32, 32)
        accumulate_tracking(grid, positions([(5, 5), (15, 15), (25, 25)]))
        assert grid.values.sum() == 18  # 3 interior stamps of mass 6

    def test_mass_conservation_many_frames(self):
        grid = RiskGrid(16, 16)
        for k in range(250):
            accumulate_tracking(grid, positions([(8, 8)], frame=k + 1))
        assert grid.values.sum() == 6 * 250

    def test_off_grid_dropped_not_clamped(self):
        grid = RiskGrid(16, 16)
        accumulate_tracking(grid, positions([(-3.0, 5.0), (40.0, 5.0)]))
        assert grid.values.sum() == 0
        assert grid.dropped == 2

    def test_cell_scale_maps_positions(self):
        grid = RiskGrid(8, 8, cell_scale=10.0)
        accumulate_tracking(grid, positions([(35.0, 52.0)]))
        assert grid.values[5, 3] == 2

    def test_monotone_per_cell(self):
        rng = np.random.default_rng(3)
        grid = RiskGrid(16, 16)
        prev = grid.values.copy()
        for k in range(50):
            pts = [tuple(rng.uniform(0, 16, 2)) for _ in range(3)]
            accumulate_tracking(grid, positions(pts, frame=k + 1))
            assert np.all(grid.values >= prev)
            prev = grid.values.copy()


class TestAccumulateViolations:
    def test_all_green_only_presence_layer(self):
        vg = ViolationGrid(16, 16)
        labels = {0: ZoneLabel.SAFE, 1: ZoneLabel.SAFE}
        pos = positions([(4, 4), (10, 10)])
        presence = RiskGrid(16, 16)
        accumulate_tracking(presence, pos)
        accumulate_violations(vg, labels, pos)
        assert presence.values.sum() == 12
        assert vg.layer_r.values.sum() == 0
        assert vg.layer_y.values.sum() == 0
        assert np.array_equal(vg.combined(presence.values), vg.beta * presence.values)

    def test_red_person_with_unit_alpha(self):
        vg = ViolationGrid(16, 16, alpha=1.0, beta=0.0, delta=0.0)
        pos = positions([(8, 8)])
        presence = RiskGrid(16, 16)
        accumulate_tracking(presence, pos)
        accumulate_violations(vg, {0: ZoneLabel.HIGH_RISK}, pos)
        combined = vg.combined(presence.values)
        expected = RiskGrid(16, 16)
        stamp_kernel(expected, (8, 8))
        assert np.array_equal(combined, expected.values)

    def test_mixed_frame_weighted_sum(self):
        vg = ViolationGrid(32, 32, alpha=1.0, beta=0.1, delta=0.5)
        labels = {0: ZoneLabel.HIGH_RISK, 1: ZoneLabel.POTENTIALLY_RISKY, 2: ZoneLabel.SAFE}
        pos = positions([(5, 5), (15, 15), (25, 25)])
        presence = RiskGrid(32, 32)
        accumulate_tracking(presence, pos)
        accumulate_violations(vg, labels, pos)
        # independent per-layer recomputation
        red, tracked, yellow = RiskGrid(32, 32), RiskGrid(32, 32), RiskGrid(32, 32)
        stamp_kernel(red, (5, 5))
        for c in ((5, 5), (15, 15), (25, 25)):
            stamp_kernel(tracked, c)
        stamp_kernel(yellow, (15, 15))
        expected = 1.0 * red.values + 0.1 * tracked.values + 0.5 * yellow.values
        assert np.allclose(vg.combined(presence.values), expected, atol=1e-12)

    def test_combined_bits_match_full_grid_sum(self):
        # layers live on different rows, presence alone on some, -0.0 on
        # one; 2048 columns make blocks of a few rows, most of them skipped
        rng = np.random.default_rng(17)
        vg = ViolationGrid(2048, 40, alpha=1.0, beta=0.1, delta=0.5)
        presence = np.zeros((40, 2048))
        vg.layer_r.values[[3, 4, 20]] = rng.exponential(size=(3, 2048))
        vg.layer_y.values[[4, 30]] = rng.exponential(size=(2, 2048))
        presence[[0, 3, 12, 13, 39]] = rng.exponential(size=(5, 2048))
        presence[25, 5] = -0.0
        want = vg.alpha * vg.layer_r.values + vg.beta * presence + vg.delta * vg.layer_y.values
        got = vg.combined(presence)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_rejects_bad_coefficient(self, bad):
        with pytest.raises(ValueError):
            ViolationGrid(4, 4, beta=bad)


class TestCrowdGrid:
    def test_empty_grid_stays_zero(self):
        cg = CrowdGrid(16, 16, decay_gamma=0.99)
        for k in range(10):
            crowd_step(cg, positions([], frame=k + 1))
        assert cg.values.sum() == 0

    def test_steady_occupancy_converges(self):
        cg = CrowdGrid(16, 16, decay_gamma=0.99)
        for k in range(2000):
            crowd_step(cg, positions([(8, 8)], frame=k + 1))
        limit = 2.0 / (1.0 - 0.99)
        assert cg.values[8, 8] == pytest.approx(limit, rel=0.01)

    def test_pure_decay_after_departure(self):
        cg = CrowdGrid(16, 16, decay_gamma=0.99)
        for k in range(100):
            crowd_step(cg, positions([(8, 8)], frame=k + 1))
        peak = cg.values[8, 8]
        for k in range(50):
            crowd_step(cg, positions([], frame=101 + k))
        assert cg.values[8, 8] == pytest.approx(peak * 0.99**50, rel=1e-12)
        assert np.all(cg.values >= 0)

    def test_long_term_ema(self):
        lt = LongTermCrowd(4, 4, smoothing=0.9)
        ones = np.ones((4, 4))
        lt.update(ones)
        assert np.allclose(lt.values, 0.1 * ones)
        lt.update(ones)
        assert np.allclose(lt.values, 0.19 * ones)


def stamp_loop(grid: RiskGrid, pos: FramePositions, ids=None) -> None:
    """Reference: one scalar stamp_kernel call per person, in row order."""
    for tid, p in pos.entries:
        if ids is None or tid in ids:
            stamp_kernel(grid, (math.floor(p.xw / grid.cell_scale),
                                math.floor(p.yw / grid.cell_scale)))


def crowded_frame(rng, width: int, height: int, scale: float, frame: int) -> FramePositions:
    """People packed into a few cells, border cells among them, plus off-grid points."""
    cols = rng.choice([0, 1, width - 1, *rng.integers(0, width, 2)], size=3)
    rows = rng.choice([0, height - 1, *rng.integers(0, height, 2)], size=3)
    n_in = int(rng.integers(0, 12))
    cell = rng.integers(0, 3, size=n_in)  # many people share each of three cells
    xs = (cols[cell] + rng.uniform(0, 1, n_in)) * scale
    ys = (rows[cell] + rng.uniform(0, 1, n_in)) * scale
    off = rng.choice([-0.5, -3 * scale, -1e9, width * scale, (width + 2) * scale], size=(2, 2))
    xs = np.concatenate([xs, off[0], rng.uniform(0, width * scale, 2)])
    ys = np.concatenate([ys, rng.uniform(0, height * scale, 2), off[1]])
    order = rng.permutation(len(xs))
    ids = [int(i) for i in rng.choice(10_000, size=len(xs), replace=False)]
    return FramePositions(frame, ids, np.stack([xs, ys], axis=1)[order])


class TestStampOracle:
    """The vectorised stamps against a loop of scalar stamp_kernel calls, bit for bit."""

    WIDTH, HEIGHT, SCALE = 9, 7, 1.5

    def frames(self, seed: int, n: int = 60):
        rng = np.random.default_rng(seed)
        return [crowded_frame(rng, self.WIDTH, self.HEIGHT, self.SCALE, k + 1) for k in range(n)]

    @pytest.mark.parametrize("seed", range(4))
    def test_tracking_grid(self, seed):
        grid = RiskGrid(self.WIDTH, self.HEIGHT, self.SCALE)
        ref = RiskGrid(self.WIDTH, self.HEIGHT, self.SCALE)
        for pos in self.frames(seed):
            accumulate_tracking(grid, pos)
            stamp_loop(ref, pos)
            assert np.array_equal(grid.values, ref.values)
            assert grid.dropped == ref.dropped
        assert ref.dropped > 0 and ref.values[0].any() and ref.values[-1].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_violation_layers(self, seed):
        rng = np.random.default_rng(100 + seed)
        vg = ViolationGrid(self.WIDTH, self.HEIGHT, cell_scale=self.SCALE)
        ref = ViolationGrid(self.WIDTH, self.HEIGHT, cell_scale=self.SCALE)
        zones = list(ZoneLabel)
        for pos in self.frames(seed):
            labels = {tid: zones[int(rng.integers(0, 3))] for tid in pos.ids}
            accumulate_violations(vg, labels, pos)
            stamp_loop(ref.layer_r, pos, {t for t, z in labels.items() if z is ZoneLabel.HIGH_RISK})
            stamp_loop(ref.layer_y, pos,
                       {t for t, z in labels.items() if z is ZoneLabel.POTENTIALLY_RISKY})
            for name in ("layer_r", "layer_y"):
                got, want = getattr(vg, name), getattr(ref, name)
                assert np.array_equal(got.values, want.values), name
                assert got.dropped == want.dropped, name
        assert ref.layer_r.dropped > 0 and ref.layer_y.dropped > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_crowd_step_on_fractional_mass(self, seed):
        # a pre-filled grid of non-integer mass: each cell's sum depends on
        # the order its additions happen in
        start = np.random.default_rng(seed).uniform(0, 1, (self.HEIGHT, self.WIDTH)) / 3.0
        cg = CrowdGrid(self.WIDTH, self.HEIGHT, decay_gamma=0.93, cell_scale=self.SCALE,
                       grid=RiskGrid(self.WIDTH, self.HEIGHT, self.SCALE, values=start.copy()))
        ref = RiskGrid(self.WIDTH, self.HEIGHT, self.SCALE, values=start.copy())
        for pos in self.frames(seed):
            crowd_step(cg, pos)
            ref.values *= 0.93
            stamp_loop(ref, pos)
            assert np.array_equal(cg.values, ref.values)
            assert cg.grid.dropped == ref.dropped


def random_frames(rng, n_frames: int, width: int, height: int, scale: float):
    """Positions per frame, a third of them empty; some land on border rows or off the grid."""
    frames = []
    for k in range(n_frames):
        n = 0 if rng.random() < 1 / 3 else int(rng.integers(1, 5))
        rows = rng.choice([0, height - 1, -1, height, *rng.integers(0, height, 4)], size=n)
        xs = rng.uniform(-scale, (width + 1) * scale, size=n)
        ys = (rows + rng.uniform(0, 1, size=n)) * scale
        frames.append(positions(list(zip(xs, ys)), frame=k + 1))
    return frames


def stamped_pair(gamma: float, smoothing: float, seed: int = 3):
    """A crowd grid and its long-term average after a few frames of stamps."""
    cg = CrowdGrid(24, 32, decay_gamma=gamma)
    lt = LongTermCrowd(24, 32, smoothing=smoothing)
    for pos in random_frames(np.random.default_rng(seed), 12, 24, 32, 1.0):
        crowd_step(cg, pos)
        lt.update(cg.values, cg.live_rects)
    return cg, lt


def outside(rects: list[tuple[slice, slice]], shape: tuple[int, int]) -> np.ndarray:
    """The mask of the cells that no rectangle covers."""
    mask = np.ones(shape, dtype=bool)
    for cells in rects:
        mask[cells] = False
    return mask


class TestLiveRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_full_grid_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        width, height, scale, gamma, s = 20, 30, 1.5, 0.97, 0.9
        cg = CrowdGrid(width, height, decay_gamma=gamma, cell_scale=scale)
        lt = LongTermCrowd(width, height, smoothing=s)
        ref = RiskGrid(width, height, scale)
        ref_long = np.zeros((height, width))
        for pos in random_frames(rng, 150, width, height, scale):
            crowd_step(cg, pos)
            lt.update(cg.values, cg.live_rects)
            ref.values *= gamma
            accumulate_tracking(ref, pos)
            ref_long *= s
            ref_long += ref.values * (1.0 - s)
            assert np.array_equal(cg.values, ref.values)
            assert np.array_equal(lt.values, ref_long)
        assert cg.grid.dropped == ref.dropped > 0
        assert cg.live_rects[0][0].start == 0 and cg.live_rects[-1][0].stop == height
        assert not cg.values[outside(cg.live_rects, cg.values.shape)].any()

    def test_runs_follow_the_mask(self):
        cg = CrowdGrid(8, 16)
        crowd_step(cg, positions([(3, 0.5), (3, 6.5), (3, 8.5), (3, 15.5)]))
        assert cg.live_rects == [np.s_[0:2, 0:8], np.s_[5:10, 0:8], np.s_[14:16, 0:8]]

    def test_prefilled_grid_rows_are_live(self):
        grid = RiskGrid(4, 6)
        grid.values[2, 1] = 5.0
        cg = CrowdGrid(4, 6, decay_gamma=0.5, grid=grid)
        assert cg.live_rects == [np.s_[2:3, 0:4]]
        crowd_step(cg, positions([]))
        assert cg.values[2, 1] == 2.5


    def test_update_allocates_no_grid_sized_temporaries(self):
        cg, lt = CrowdGrid(240, 240), LongTermCrowd(240, 240)
        pos = positions([(x, y) for x in range(5, 240, 40) for y in range(5, 240, 3)])
        crowd_step(cg, pos)
        lt.update(cg.values, cg.live_rects)
        assert cg.live_rects == [np.s_[4:240, 0:240]]
        tracemalloc.start()
        try:
            for _ in range(3):
                crowd_step(cg, pos)
                lt.update(cg.values, cg.live_rects)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cg.values.nbytes // 4


def band_windows(rng, width: int, height: int) -> list[int]:
    """Per band of 16 rows, the first of the four 64-column chunks most of its stamps go to.

    The first band's window holds column 0, the last band's the grid's last column.
    """
    chunks, bands = -(-width // 64), -(-height // 16)
    middle = rng.integers(0, chunks - 4, size=max(bands - 2, 0)).tolist()
    return [0, *middle, chunks - 4][:bands] if bands > 1 else [0]


def tile_edge_frames(rng, windows: list[int], n_frames: int, width: int, height: int,
                     scale: float):
    """Frames of 0-4 people, or ("gap", k) for k frames with nobody, on tile and grid edges.

    A stamp's centre lands on a row either side of a band edge and a column
    either side of a chunk edge in its band's window, so the kernel's +-1
    cells cross into bands and chunks no centre has reached, and bands start
    narrow.  Later, more and more stamps land anywhere, which widens bands to
    whole rows; a few land off the grid.
    """
    frames = []
    for frame in range(n_frames):
        if rng.random() < 0.1:
            frames.append(("gap", int(rng.integers(1, 40))))
            continue
        points = []
        for _ in range(int(rng.integers(0, 5))):
            band = int(rng.integers(0, len(windows)))
            row = band * 16 + rng.choice([-1, 0, 1, 7, 14, 15])
            col = (windows[band] + int(rng.integers(0, 4))) * 64 + rng.choice([-2, -1, 0, 1])
            if band == len(windows) - 1 and rng.random() < 0.2:
                col = width - 1  # the first window holds column 0 already
            roll = rng.random()
            if roll < 0.06 * frame / n_frames:
                row, col = band * 16 + int(rng.integers(0, 16)), int(rng.integers(0, width))
            elif roll > 0.93:
                off_grid = [(-1, col), (height, col), (row, -1), (row, width)]
                row, col = off_grid[int(rng.integers(0, 4))]
            points.append(((col + rng.uniform(0.25, 0.75)) * scale,
                           (row + rng.uniform(0.25, 0.75)) * scale))
        frames.append(("step", positions(points)))
    return frames


class TestLiveRects:
    """Crowd recurrences on the live rectangles against the same recurrences on the whole grid."""

    @pytest.mark.parametrize("height,width,prefill,seed", [
        (45, 1500, False, 0), (37, 1419, True, 1), (70, 2100, True, 2),
        (23, 1400, False, 3), (45, 1500, True, 4), (37, 1419, False, 5),
        (37, 300, True, 6),  # too narrow to cut a band down: whole rows only
    ])
    def test_bit_identical_to_full_grid_recurrence(self, height, width, prefill, seed):
        rng = np.random.default_rng(seed)
        scale, gamma, s = 1.5, 0.97, 0.9
        windows = band_windows(rng, width, height)
        start = np.zeros((height, width))
        if prefill:  # mass in each band's window where no stamp lands, and in the corners
            for band, chunk in enumerate(windows):
                start[min(band * 16 + 4, height - 1), chunk * 64 + 30] = rng.uniform(0.5, 3.0)
            start[0, 0] = start[-1, -1] = 1.0
        given = RiskGrid(width, height, scale, values=start.copy()) if prefill else None
        cg = CrowdGrid(width, height, decay_gamma=gamma, cell_scale=scale, grid=given)
        lt = LongTermCrowd(width, height, smoothing=s)
        ref = RiskGrid(width, height, scale, values=start.copy())
        ref_long = np.zeros((height, width))
        narrow = whole = 0
        for kind, event in tile_edge_frames(rng, windows, 300, width, height, scale):
            if kind == "gap":
                advance_empty(cg, lt, event)
                ref_long *= s ** event
                ref_long += ref.values * ((1.0 - s) * gamma * decay_sum(s, gamma, event))
                ref.values *= gamma ** event
            else:
                crowd_step(cg, event)
                lt.update(cg.values, cg.live_rects)
                ref.values *= gamma
                accumulate_tracking(ref, event)
                ref_long *= s
                ref_long += ref.values * (1.0 - s)
            assert np.array_equal(cg.values, ref.values)
            assert np.array_equal(lt.values, ref_long)
            skipped = outside(cg.live_rects, (height, width))
            assert not cg.values.view(np.uint64)[skipped].any()
            assert not lt.values.view(np.uint64)[skipped].any()
            narrow += sum(cols != slice(0, width) for _, cols in cg.live_rects)
            whole += sum(cols == slice(0, width) for _, cols in cg.live_rects)
        assert cg.grid.dropped == ref.dropped > 0
        assert whole > 0 and (narrow > 0) == (width > 1024 + 64)
        rows = [r for rect_rows, _ in cg.live_rects for r in range(rect_rows.start, rect_rows.stop)]
        assert rows == sorted(set(rows))  # disjoint, in row order


def test_grid_zeros_is_a_fresh_writable_zero_grid():
    a, b = grid_zeros(3, 5), grid_zeros(3, 5)
    assert a.shape == (3, 5) and a.dtype == np.float64 and not a.any()
    a[1, 2] = 4.0
    assert a.sum() == 4.0 and not b.any()
    assert grid_zeros(0, 5).shape == (0, 5)


class TestAdvanceEmpty:
    @pytest.mark.parametrize("gamma,smoothing", [
        (0.99, 0.999),
        (0.999, 0.999),  # s == g
        (0.99, 0.99 * (1 + 1e-9)),  # s within a hair of g
        (1.0, 0.999),  # no decay
        (0.99, 0.0),  # no smoothing
        (0.999, 0.9),  # g > s
    ])
    @pytest.mark.parametrize("k", [1, 2, 37, 3000])
    def test_matches_per_frame_recurrence(self, gamma, smoothing, k):
        cg, lt = stamped_pair(gamma, smoothing)
        ref_cg, ref_lt = copy.deepcopy(cg), copy.deepcopy(lt)
        for j in range(k):
            crowd_step(ref_cg, positions([], frame=100 + j))
            ref_lt.update(ref_cg.values, ref_cg.live_rects)
        advance_empty(cg, lt, k)
        for ref in (ref_cg.values, ref_lt.values):  # a tolerance on subnormals would be loose
            assert ref[ref > 0].min() > np.finfo(float).tiny
        np.testing.assert_allclose(cg.values, ref_cg.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(lt.values, ref_lt.values, rtol=1e-12, atol=0)
        assert np.array_equal(cg.values == 0, ref_cg.values == 0)

    @pytest.mark.parametrize("s,g", [(0.999, 0.99), (0.99, 0.999), (0.7, 0.7),
                                     (0.0, 0.99), (0.99, 1.0), (0.99 * (1 + 1e-9), 0.99)])
    @pytest.mark.parametrize("k", [1, 2, 60])
    def test_decay_sum_exact(self, s, g, k):
        exact = sum(Fraction(s) ** (k - 1 - j) * Fraction(g) ** j for j in range(k))
        assert decay_sum(s, g, k) == pytest.approx(float(exact), rel=1e-14)

    def test_rejects_empty_stretch(self):
        cg, lt = stamped_pair(0.99, 0.999)
        with pytest.raises(ValueError):
            advance_empty(cg, lt, 0)


class TestNormalize:
    def test_linear_map(self):
        out = normalize(np.array([0.0, 5.0, 10.0]), 0, 120)
        assert out.tolist() == [0.0, 60.0, 120.0]

    def test_constant_matrix_maps_to_lower(self):
        out = normalize(np.full((3, 3), 7.0), 0, 120)
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_affine_with_negatives(self):
        out = normalize(np.array([-3.0, 1.0, 5.0]), 0, 120)
        assert out.tolist() == [0.0, 60.0, 120.0]

    def test_endpoints_exact_and_order_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            X = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12))) * 50
            if X.max() == X.min():
                continue
            before = X.copy()
            out = normalize(X, 10.0, 20.0)
            assert np.array_equal(X, before)
            # bit for bit the same as the textbook expression
            assert np.array_equal(out, 10.0 + 10.0 * ((X - X.min()) / (X.max() - X.min())))
            assert out.min() == 10.0
            assert out.max() == 20.0
            flat_x, flat_o = X.ravel(), out.ravel()
            order = np.argsort(flat_x, kind="stable")
            assert np.all(np.diff(flat_o[order]) >= 0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            normalize(np.zeros((2, 2)), 5, 5)
