"""Risk grid accumulation, decay, normalization and the combined violation grid."""

from __future__ import annotations

import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crowdrisk.distancing import FramePositions, ZoneLabel
from crowdrisk.risk import (
    CrowdGrid,
    LongTermCrowd,
    RiskGrid,
    ViolationGrid,
    accumulate_tracking,
    accumulate_violations,
    advance_to,
    crowd_step,
    _HEAP_CELLS,
    decay_sum,
    grid_zeros,
    normalize,
    stamp_kernel,
)


def positions(points: list[tuple[float, float]], frame: int = 1) -> FramePositions:
    xy = np.array(points, dtype=float).reshape(len(points), 2)
    return FramePositions(frame, list(range(len(points))), xy)


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
        assert np.array_equal(vg.combined(presence)[0], vg.beta * presence.values)

    def test_red_person_with_unit_alpha(self):
        vg = ViolationGrid(16, 16, alpha=1.0, beta=0.0, delta=0.0)
        pos = positions([(8, 8)])
        presence = RiskGrid(16, 16)
        accumulate_tracking(presence, pos)
        accumulate_violations(vg, {0: ZoneLabel.HIGH_RISK}, pos)
        combined, _ = vg.combined(presence)
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
        assert np.allclose(vg.combined(presence)[0], expected, atol=1e-12)

    def test_combined_bits_match_full_grid_sum(self):
        # layers stamped on different rows, presence alone on some, border
        # rows among them; their records hold several blocks of cells
        rng = np.random.default_rng(17)
        vg = ViolationGrid(2048, 40, alpha=1.0, beta=0.1, delta=0.5)
        presence = RiskGrid(2048, 40)
        for grid, rows in ((vg.layer_r, [3, 4, 20]), (vg.layer_y, [4, 30]),
                           (presence, [0, 3, 12, 13, 39])):
            for _ in range(3):
                xs = rng.uniform(0, 2048, size=2000)
                ys = rng.choice(rows, size=2000) + rng.uniform(0, 1, size=2000)
                accumulate_tracking(grid, positions(list(zip(xs, ys))))
        want = (vg.alpha * vg.layer_r.values + vg.beta * presence.values
                + vg.delta * vg.layer_y.values)
        got, cells = vg.combined(presence)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert len(cells) > 3 * _HEAP_CELLS
        assert np.array_equal(cells, np.flatnonzero(want))

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
        cg, lt = CrowdGrid(16, 16, decay_gamma=0.99), LongTermCrowd(16, 16)
        for k in range(100):
            crowd_step(cg, positions([(8, 8)], frame=k + 1))
            lt.update(cg)
        peak = cg.values[8, 8]
        for k in range(50):
            crowd_step(cg, positions([], frame=101 + k))
            lt.update(cg)
        assert cg.values[8, 8] == peak  # no stamp: the cell lags behind
        advance_to(cg, lt, 150)
        assert cg.values[8, 8] == pytest.approx(peak * 0.99**50, rel=1e-12)
        assert np.all(cg.values >= 0)

    def test_long_term_ema(self):
        cg, lt = CrowdGrid(4, 4, decay_gamma=0.5), LongTermCrowd(4, 4, smoothing=0.9)
        crowd_step(cg, positions([(1.5, 1.5)], frame=1))
        lt.update(cg)
        kernel = cg.values.copy()
        assert kernel.sum() == 6.0 and np.allclose(lt.values, 0.1 * kernel)
        crowd_step(cg, positions([(1.5, 1.5)], frame=2))  # C = 1.5 * kernel
        lt.update(cg)
        assert np.allclose(lt.values, 0.24 * kernel)
        advance_to(cg, lt, 3)  # C = 0.75 * kernel
        assert np.allclose(cg.values, 0.75 * kernel)
        assert np.allclose(lt.values, (0.9 * 0.24 + 0.1 * 0.75) * kernel)

    def test_repeat_update_folds_nothing(self):
        """A second update after one step leaves the average as one update did."""
        pairs = [(CrowdGrid(8, 8, decay_gamma=0.99), LongTermCrowd(8, 8, smoothing=0.9))
                 for _ in range(2)]
        for frame in (1, 2):
            for updates, (cg, lt) in enumerate(pairs, start=1):
                crowd_step(cg, positions([(3.5, 3.5)], frame=frame))
                for _ in range(updates):
                    lt.update(cg)
            (cg1, once), (cg2, twice) = pairs
            assert once.values.any()
            assert np.array_equal(twice.values, once.values)
            assert np.array_equal(cg2.values, cg1.values)


def stamp_loop(grid: RiskGrid, pos: FramePositions, ids=None) -> None:
    """Reference: one scalar stamp_kernel call per person, in row order."""
    for tid, (xw, yw) in zip(pos.ids, pos.xy.tolist()):
        if ids is None or tid in ids:
            stamp_kernel(grid, (math.floor(xw / grid.cell_scale),
                                math.floor(yw / grid.cell_scale)))


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
        # the decay leaves non-integer mass: each cell's sum depends on the
        # order its additions happen in
        cg = CrowdGrid(self.WIDTH, self.HEIGHT, decay_gamma=0.93, cell_scale=self.SCALE)
        lt = LongTermCrowd(self.WIDTH, self.HEIGHT)
        ref = RiskGrid(self.WIDTH, self.HEIGHT, self.SCALE)
        for pos in self.frames(seed):
            crowd_step(cg, pos)
            lt.update(cg)
            advance_to(cg, lt, pos.frame)
            ref.values *= 0.93
            stamp_loop(ref, pos)
            assert np.array_equal(cg.values, ref.values)
            assert cg.grid.dropped == ref.dropped
        assert (ref.values % 1 != 0).any()


def assert_zero_outside(values: np.ndarray, cells: np.ndarray) -> None:
    """Every cell of values whose flat index is not in cells is +0.0."""
    outside = np.ones(values.size, dtype=bool)
    outside[cells] = False
    assert not values.reshape(-1)[outside].view(np.uint64).any()


class TestReachedRecord:
    """Each grid records the cells its stamps reach; every other cell stays +0.0."""

    WIDTH, HEIGHT, SCALE = 9, 7, 1.5

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_outside_the_record_are_zero(self, seed):
        # border cells (clipped kernels), off-grid people, red and yellow
        # people, and frames with nobody
        rng = np.random.default_rng(200 + seed)
        grid = RiskGrid(self.WIDTH, self.HEIGHT, self.SCALE)
        vg = ViolationGrid(self.WIDTH, self.HEIGHT, cell_scale=self.SCALE)
        cg = CrowdGrid(self.WIDTH, self.HEIGHT, decay_gamma=0.5, cell_scale=self.SCALE)
        lt = LongTermCrowd(self.WIDTH, self.HEIGHT)
        zones = list(ZoneLabel)
        for k in range(40):
            pos = crowded_frame(rng, self.WIDTH, self.HEIGHT, self.SCALE, frame=1 + 100 * k)
            if k % 3 == 2:
                pos = positions([], frame=pos.frame)
            labels = {tid: zones[int(rng.integers(0, 3))] for tid in pos.ids}
            accumulate_tracking(grid, pos)
            accumulate_violations(vg, labels, pos)
            crowd_step(cg, pos)
            lt.update(cg)
        advance_to(cg, lt, 4000)
        for g in (grid, vg.layer_r, vg.layer_y, cg.grid):
            assert_zero_outside(g.values, g.reached())
            assert np.array_equal(g.reached(), np.unique(g.reached()))
        assert_zero_outside(lt.values, cg.grid.reached())
        combined, cells = vg.combined(grid)
        assert_zero_outside(combined, cells)
        assert (cg.values.reshape(-1)[cg.grid.reached()] == 0).any()  # decayed to +0.0

    def test_stamp_kernel_records_its_cells(self):
        grid = RiskGrid(8, 8)
        stamp_kernel(grid, (0, 0))
        stamp_kernel(grid, (0, 0))
        assert grid.reached().tolist() == [0, 1, 8]

    def test_people_standing_still_keep_a_small_record(self):
        # 2,000 frames of four people standing still: each grid records
        # their 20 kernel cells once, not once a frame
        grid, vg = RiskGrid(64, 64), ViolationGrid(64, 64)
        cg, lt = CrowdGrid(64, 64), LongTermCrowd(64, 64)
        points = [(10.5, 10.5), (30.5, 10.5), (10.5, 30.5), (30.5, 30.5)]
        labels = {0: ZoneLabel.HIGH_RISK, 1: ZoneLabel.HIGH_RISK,
                  2: ZoneLabel.POTENTIALLY_RISKY, 3: ZoneLabel.POTENTIALLY_RISKY}
        for frame in range(1, 2001):
            pos = positions(points, frame=frame)
            accumulate_tracking(grid, pos)
            accumulate_violations(vg, labels, pos)
            crowd_step(cg, pos)
            lt.update(cg)
        for g, people in ((grid, 4), (vg.layer_r, 2), (vg.layer_y, 2), (cg.grid, 4)):
            assert sum(map(len, g._parts)) == 5 * people <= 20
            assert len(g.reached()) == 5 * people


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


class FullGridCrowd:
    """Reference: C = g*C + S and L = s*L + (1-s)*C on every cell, every frame.

    S comes from accumulate_tracking, which TestStampOracle holds to a loop
    of scalar stamp_kernel calls bit for bit.
    """

    def __init__(self, width: int, height: int, gamma: float, smoothing: float,
                 scale: float = 1.0) -> None:
        self.gamma, self.smoothing = gamma, smoothing
        self.crowd = RiskGrid(width, height, scale)
        self.average = np.zeros((height, width))

    def step(self, pos: FramePositions | None = None) -> None:
        self.crowd.values *= self.gamma
        if pos is not None:
            accumulate_tracking(self.crowd, pos)
        self.average *= self.smoothing
        self.average += self.crowd.values * (1.0 - self.smoothing)


def assert_matches(cg: CrowdGrid, lt: LongTermCrowd, ref: FullGridCrowd) -> None:
    """cg and lt match ref at rtol 1e-12, with the same zero cells."""
    for got, want in ((cg.values, ref.crowd.values), (lt.values, ref.average)):
        if want.any():  # a tolerance on subnormals would be loose
            assert want[want > 0].min() > np.finfo(float).tiny
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(got == 0, want == 0)


def assert_up_to_date(cg: CrowdGrid, lt: LongTermCrowd, ref: FullGridCrowd, frame: int) -> None:
    """Copies of cg and lt brought up to frame match ref."""
    cg, lt = copy.deepcopy(cg), copy.deepcopy(lt)
    advance_to(cg, lt, frame)
    assert_matches(cg, lt, ref)


def gapped_frames(rng, n_frames: int, width: int, height: int, scale: float):
    """random_frames with gaps of 1 to 3000 frames between them."""
    frame, frames = 0, []
    for pos in random_frames(rng, n_frames, width, height, scale):
        roll = rng.random()
        frame += 1 if roll < 0.5 else int(rng.integers(2, 40) if roll < 0.9 else rng.integers(40, 3001))
        frames.append(FramePositions(frame, pos.ids, pos.xy))
    return frames


def stamped_pair(gamma: float, smoothing: float, seed: int = 3):
    """A crowd grid, its long-term average and their reference after 12 frames of stamps."""
    cg = CrowdGrid(24, 32, decay_gamma=gamma)
    lt = LongTermCrowd(24, 32, smoothing=smoothing)
    ref = FullGridCrowd(24, 32, gamma, smoothing)
    for pos in random_frames(np.random.default_rng(seed), 12, 24, 32, 1.0):
        crowd_step(cg, pos)
        lt.update(cg)
        ref.step(pos)
    return cg, lt, ref


# (gamma, smoothing): s == g, s within a hair of g, no decay, no smoothing, g > s
DECAY_PAIRS = [(0.99, 0.999), (0.999, 0.999), (0.99, 0.99 * (1 + 1e-9)),
               (1.0, 0.999), (0.99, 0.0), (0.999, 0.9)]


class TestCrowdClock:
    """Cells brought up to date only when stamped, against the whole-grid recurrence."""

    @pytest.mark.parametrize("gamma,smoothing", DECAY_PAIRS)
    def test_matches_full_grid_recurrence(self, gamma, smoothing):
        rng = np.random.default_rng(7)
        width, height, scale = 20, 30, 1.5
        cg = CrowdGrid(width, height, decay_gamma=gamma, cell_scale=scale)
        lt = LongTermCrowd(width, height, smoothing=smoothing)
        ref = FullGridCrowd(width, height, gamma, smoothing, scale)
        last = 0
        for i, pos in enumerate(gapped_frames(rng, 80, width, height, scale)):
            for _ in range(pos.frame - last - 1):
                ref.step()
            crowd_step(cg, pos)
            lt.update(cg)
            ref.step(pos)
            last = pos.frame
            if i % 10 == 9:
                assert_up_to_date(cg, lt, ref, last)
            if i == 40:  # steps go on after an advance
                advance_to(cg, lt, last)
        for _ in range(2500):
            ref.step()
        assert_up_to_date(cg, lt, ref, last + 2500)
        assert cg.grid.dropped == ref.crowd.dropped > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_when_advanced_every_frame(self, seed):
        rng = np.random.default_rng(seed)
        width, height, scale, gamma, s = 20, 30, 1.5, 0.97, 0.9
        cg = CrowdGrid(width, height, decay_gamma=gamma, cell_scale=scale)
        lt = LongTermCrowd(width, height, smoothing=s)
        ref = FullGridCrowd(width, height, gamma, s, scale)
        for pos in random_frames(rng, 150, width, height, scale):
            crowd_step(cg, pos)
            lt.update(cg)
            advance_to(cg, lt, pos.frame)
            ref.step(pos)
            assert np.array_equal(cg.values, ref.crowd.values)
            assert np.array_equal(lt.values, ref.average)
        assert cg.grid.dropped == ref.crowd.dropped > 0

    def test_advance_allocates_no_grid_sized_temporaries(self):
        width, height = 1024, 512  # 64 blocks of _HEAP_CELLS cells
        cg, lt = CrowdGrid(width, height), LongTermCrowd(width, height)
        ref = FullGridCrowd(width, height, cg.decay_gamma, lt.smoothing)
        for frame in range(1, 21):  # a person on every cell of every third row: every cell is stamped
            rows = range(1 + 3 * (frame - 1), height, 3 * 8) if frame <= 8 else ()
            pos = positions([(x + 0.5, y + 0.5) for y in rows for x in range(width)], frame=frame)
            crowd_step(cg, pos)
            lt.update(cg)
            ref.step(pos)
        assert cg.values.all()
        tracemalloc.start()
        try:
            advance_to(cg, lt, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cg.values.nbytes // 4  # whole-grid temporaries would take several grids
        assert_matches(cg, lt, ref)


def test_grid_zeros_is_a_fresh_writable_zero_grid():
    a, b = grid_zeros(3, 5), grid_zeros(3, 5)
    assert a.shape == (3, 5) and a.dtype == np.float64 and not a.any()
    a[1, 2] = 4.0
    assert a.sum() == 4.0 and not b.any()
    assert grid_zeros(0, 5).shape == (0, 5)


class TestAdvanceEmpty:
    """A stretch of frames with nobody in it leaves the clocks behind; advance_to catches up."""

    @pytest.mark.parametrize("gamma,smoothing", DECAY_PAIRS)
    @pytest.mark.parametrize("k", [1, 2, 37, 3000])
    def test_matches_per_frame_recurrence(self, gamma, smoothing, k):
        cg, lt, ref = stamped_pair(gamma, smoothing)
        for _ in range(k):
            ref.step()
        assert_up_to_date(cg, lt, ref, 12 + k)

    @pytest.mark.parametrize("s,g", [(0.999, 0.99), (0.99, 0.999), (0.7, 0.7),
                                     (0.0, 0.99), (0.99, 1.0), (0.99 * (1 + 1e-9), 0.99)])
    @pytest.mark.parametrize("k", [1, 2, 60])
    def test_decay_sum_exact(self, s, g, k):
        def exact(n: int) -> float:
            return float(sum(Fraction(s) ** (n - 1 - j) * Fraction(g) ** j for j in range(n)))

        assert decay_sum(s, g, k) == pytest.approx(exact(k), rel=1e-14)
        ks = np.array([0, 1, k, 3 * k])
        np.testing.assert_allclose(decay_sum(s, g, ks), [exact(n) for n in ks.tolist()],
                                   rtol=1e-14, atol=0)
        assert decay_sum(s, g, 0) == 0.0

    def test_rejects_empty_stretch(self):
        cg, lt, _ = stamped_pair(0.99, 0.999)  # frames 1-12
        with pytest.raises(ValueError, match="not after"):
            crowd_step(cg, positions([], frame=12))
        with pytest.raises(ValueError, match="not after"):
            advance_to(cg, lt, 11)
        advance_to(cg, lt, 12)  # a stretch of no frames: nothing to do


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
