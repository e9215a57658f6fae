"""Spatio-temporal risk accumulation on 2-D grids.

Every person stamps a small cross-shaped kernel (center 2, edge neighbors
1, corners 0) at their grid cell.  Three accumulators build on that: a
monotone tracking grid G, a violation grid whose red and couple layers
combine with G as presence, and a decaying crowd grid for ventilated
scenes with its long-term moving average.  A frame's stamps on a grid are
one `np.add.at`, adding in the order of one `stamp_kernel` call per person.

The crowd recurrences touch only live rows: rows some crowd stamp has
reached, the kernel's +-1 rows included.  A row never stamped is 0.0 in the
crowd grid and in its average, and `0*gamma` and `s*0 + (1-s)*0` are exactly
0, so skipping it changes no bit.  A stretch of k frames with nobody in it
can also be advanced in one closed-form step (`advance_empty`), which agrees
with k single steps to rounding.  The combined violation grid is summed
only on the rows where one of its layers is not +0.0, for the same reason.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .config import RiskConfig
from .distancing import FramePositions, ZoneLabel

# Stamp offsets (drow, dcol, weight): kernel mass is 6 for interior stamps.
_KERNEL = ((0, 0, 2.0), (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0))
_KERNEL_DR, _KERNEL_DC, _KERNEL_W = (np.array(col) for col in zip(*_KERNEL))


def grid_zeros(height: int, width: int) -> np.ndarray:
    """A (height, width) float64 grid of zeros that commits memory 4 KiB at a time.

    The grids are written on the rows people stamp, often a few of many.
    numpy asks the kernel for 2 MiB transparent huge pages on arrays of
    4 MiB and more, so a written row would commit 2 MiB when a huge page is
    free and 4 KiB when none is: the resident size of a run would follow
    the machine's memory state.  A private anonymous mapping that declines
    huge pages commits the pages written, the same on every run.
    """
    if height * width == 0 or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros((height, width))
    buf = mmap.mmap(-1, height * width * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(height, width)


def row_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The (start, stop) runs of True in a 1-D boolean mask."""
    # edges of the runs: where the mask, padded with False, flips
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return [(start, stop) for start, stop in edges.reshape(-1, 2).tolist()]


@dataclass
class RiskGrid:
    """Non-negative accumulator over width x height cells.

    cell_scale is BEV pixels per cell; stamps outside the grid are dropped
    (never clamped to the border) and counted in `dropped`.
    """

    width: int
    height: int
    cell_scale: float = RiskConfig.cell_scale
    values: np.ndarray = field(default=None)  # type: ignore[assignment]
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.cell_scale <= 0:
            raise ValueError(f"cell_scale must be positive, got {self.cell_scale}")
        if self.values is None:
            self.values = grid_zeros(self.height, self.width)


def stamp_kernel(grid: RiskGrid, center: tuple[int, int]) -> RiskGrid:
    """Add the kernel at cell (col, row), clipping at the borders.

    Out-of-bounds centers are ignored and counted on grid.dropped.
    """
    col, row = center
    if not (0 <= col < grid.width and 0 <= row < grid.height):
        grid.dropped += 1
        return grid
    v = grid.values
    for dr, dc, w in _KERNEL:
        r, c = row + dr, col + dc
        if 0 <= r < grid.height and 0 <= c < grid.width:
            v[r, c] += w
    return grid


def _stamp_positions(grid: RiskGrid, xy: np.ndarray) -> np.ndarray:
    """Stamp the kernel at the cell of each (n, 2) BEV point; return the rows it reached.

    A point's cell is (floor(xw / cell_scale), floor(yw / cell_scale)); off-grid
    points count on grid.dropped.  `np.add.at` adds unbuffered in index order,
    point by point and then kernel offset by offset, as stamp_kernel would.
    """
    col = np.floor(xy[:, 0] / grid.cell_scale)
    row = np.floor(xy[:, 1] / grid.cell_scale)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    grid.dropped += len(xy) - int(np.count_nonzero(inside))
    rows = row[inside].astype(np.intp)[:, None] + _KERNEL_DR
    cols = col[inside].astype(np.intp)[:, None] + _KERNEL_DC
    ok = (rows >= 0) & (rows < grid.height) & (cols >= 0) & (cols < grid.width)
    np.add.at(grid.values, (rows[ok], cols[ok]), np.broadcast_to(_KERNEL_W, ok.shape)[ok])
    return rows[ok]


def accumulate_tracking(grid: RiskGrid, pos: FramePositions) -> RiskGrid:
    """Stamp every detected person for this frame onto the tracking grid."""
    _stamp_positions(grid, pos.xy)
    return grid


# Cells per block of the combined sum: its float temporaries stay below
# glibc's initial mmap threshold (128 KiB), so freeing them leaves the
# threshold, and the run's peak memory, where they found it.
_SUM_BLOCK_CELLS = 8192


@dataclass
class ViolationGrid:
    """Two stacked accumulators: red breaches R and couples Y.

    The combined scalar field is alpha*R + beta*T + delta*Y, with the
    tracking grid as tracked presence T; the coefficients weight how much
    each factor spreads contamination.
    """

    width: int
    height: int
    alpha: float = RiskConfig.alpha
    beta: float = RiskConfig.beta
    delta: float = RiskConfig.delta
    cell_scale: float = RiskConfig.cell_scale
    layer_r: RiskGrid = field(default=None)  # type: ignore[assignment]
    layer_y: RiskGrid = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not all(c >= 0 and math.isfinite(c) for c in (self.alpha, self.beta, self.delta)):
            raise ValueError("risk coefficients must be finite and non-negative")
        for name in ("layer_r", "layer_y"):
            if getattr(self, name) is None:
                setattr(self, name, RiskGrid(self.width, self.height, self.cell_scale))

    def combined(self, presence: np.ndarray) -> np.ndarray:
        """alpha*R + beta*presence + delta*Y, summed only on blocks of rows where a layer is live.

        A live row holds a cell that is not +0.0.  Every other row is +0.0 in
        all three layers, and so in the sum, since the coefficients are
        finite and non-negative.
        """
        r, y = self.layer_r.values, self.layer_y.values
        out = grid_zeros(self.height, self.width)
        live = np.zeros(self.height, dtype=bool)
        for layer in (r, presence, y):
            live |= np.ascontiguousarray(layer).view(np.uint64).any(axis=1)
        step = max(1, _SUM_BLOCK_CELLS // self.width)
        for start in range(0, self.height, step):
            rows = slice(start, start + step)
            if live[rows].any():
                out[rows] = self.alpha * r[rows] + self.beta * presence[rows] + self.delta * y[rows]
        return out


def accumulate_violations(
    vg: ViolationGrid, labels: dict[int, ZoneLabel], pos: FramePositions
) -> ViolationGrid:
    """Stamp red people on layer R and yellow people on layer Y."""
    zones = [labels.get(tid) for tid in pos.ids]
    red = np.array([z is ZoneLabel.HIGH_RISK for z in zones], dtype=bool)
    yellow = np.array([z is ZoneLabel.POTENTIALLY_RISKY for z in zones], dtype=bool)
    _stamp_positions(vg.layer_r, pos.xy[red])
    _stamp_positions(vg.layer_y, pos.xy[yellow])
    return vg


@dataclass
class CrowdGrid:
    """Decaying occupancy grid for scenes with ventilation.

    Cells decay by decay_gamma each frame before new stamps land, so a
    steadily occupied cell converges to stamp_weight / (1 - gamma).

    `live_rows` marks every row that holds or has held mass; `live_runs`
    lists them as contiguous (start, stop) runs, rebuilt when a stamp marks
    a new row.  Rows outside them are 0.0.  Write to `values` only through
    `crowd_step` and `advance_empty`, which keep the mask up to date.
    """

    width: int
    height: int
    decay_gamma: float = RiskConfig.decay_gamma
    cell_scale: float = RiskConfig.cell_scale
    grid: RiskGrid = field(default=None)  # type: ignore[assignment]
    live_rows: np.ndarray = field(init=False, repr=False)
    live_runs: list[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.decay_gamma <= 1.0):
            raise ValueError(f"decay_gamma must be in (0, 1], got {self.decay_gamma}")
        given = self.grid is not None
        if not given:
            self.grid = RiskGrid(self.width, self.height, self.cell_scale)
        self.live_rows = np.zeros(self.grid.height, dtype=bool)
        self.live_runs = []
        if given:  # a new grid is all zeros: reading it would only fault its pages in
            self._mark_rows(np.flatnonzero(self.grid.values.any(axis=1)))

    @property
    def values(self) -> np.ndarray:
        return self.grid.values

    def _mark_rows(self, rows: np.ndarray) -> None:
        if rows.size == 0 or self.live_rows[rows].all():
            return
        self.live_rows[rows] = True
        self.live_runs = row_runs(self.live_rows)


def crowd_step(cg: CrowdGrid, pos: FramePositions) -> CrowdGrid:
    """Decay the live rows, then stamp the currently occupied cells."""
    values = cg.grid.values
    for start, stop in cg.live_runs:
        values[start:stop] *= cg.decay_gamma
    cg._mark_rows(_stamp_positions(cg.grid, pos.xy))
    return cg


def decay_sum(s: float, g: float, k: int) -> float:
    """The sum over j < k of s**(k-1-j) * g**j, for s, g in [0, 1] and k >= 1.

    Factors out the larger base a and sums the geometric series in q = b/a
    <= 1 through expm1, with log(q) taken as log1p((b - a)/a): b - a is
    exact when the bases are close, so the result stays accurate when s is
    within a few ulps of g, where (q**k - 1)/(q - 1) would lose most digits.
    """
    a, b = max(s, g), min(s, g)
    if b == a:
        return k * a ** (k - 1)
    if b == 0.0:
        return a ** (k - 1)
    log_q = math.log1p((b - a) / a)
    return a ** (k - 1) * (math.expm1(k * log_q) / math.expm1(log_q))


@dataclass
class LongTermCrowd:
    """Exponential moving average over single-frame crowd maps.

    L = s*L + (1-s)*C each frame, with s the smoothing.
    """

    width: int
    height: int
    smoothing: float = RiskConfig.long_term_smoothing
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (0.0 <= self.smoothing < 1.0):
            raise ValueError(f"smoothing must be in [0, 1), got {self.smoothing}")
        if self.values is None:
            self.values = grid_zeros(self.height, self.width)
        self._blend = np.empty((0, self.values.shape[1]))

    def _weighted(self, crowd_rows: np.ndarray, weight: float) -> np.ndarray:
        """crowd_rows * weight in a buffer kept as long as the longest run so far.

        The buffer is overwritten by the next call.  A fresh product each
        frame would be memory the allocator hands back and faults in again.
        """
        n = len(crowd_rows)
        if len(self._blend) < n:
            self._blend = np.empty((n, self.values.shape[1]))
        return np.multiply(crowd_rows, weight, out=self._blend[:n])

    def update(self, crowd_values: np.ndarray,
               runs: list[tuple[int, int]] | None = None) -> None:
        """Fold one crowd map in, on the (start, stop) row runs or the whole grid.

        Rows outside `runs` must be 0.0 here and in crowd_values, where
        the update would leave them 0.0.
        """
        for start, stop in ((0, len(self.values)),) if runs is None else runs:
            rows = self.values[start:stop]
            rows *= self.smoothing
            rows += self._weighted(crowd_values[start:stop], 1.0 - self.smoothing)


def advance_empty(cg: CrowdGrid, long_term: LongTermCrowd, k: int) -> None:
    """Advance both crowd grids over k frames with nobody in them, in one step.

    Equals k rounds of `crowd_step` with no positions and
    `long_term.update(cg.values, cg.live_runs)` up to rounding:
    C <- g**k * C and L <- s**k * L + (1-s) * g * decay_sum(s, g, k) * C.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 frames, got {k}")
    g, s = cg.decay_gamma, long_term.smoothing
    crowd_weight = (1.0 - s) * g * decay_sum(s, g, k)
    for start, stop in cg.live_runs:
        crowd = cg.values[start:stop]
        rows = long_term.values[start:stop]
        rows *= s ** k
        rows += long_term._weighted(crowd, crowd_weight)
        crowd *= g ** k


def normalize(X: np.ndarray, l: float, u: float) -> np.ndarray:
    """Affine rescale of X into [l, u]; a constant matrix maps to all l."""
    if not u > l:
        raise ValueError(f"need u > l, got l={l}, u={u}")
    X = np.asarray(X, dtype=float)
    lo = X.min()
    hi = X.max()
    if hi == lo:
        return np.full_like(X, float(l))
    # ratio first: exactly 0 at the min and 1 at the max, so the output
    # range hits [l, u] endpoint-exact; one output array, updated in place
    out = np.subtract(X, lo)
    out /= hi - lo
    out *= u - l
    out += l
    return out
