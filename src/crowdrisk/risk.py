"""Spatio-temporal risk accumulation on 2-D grids.

Every person stamps a small cross-shaped kernel (center 2, edge neighbors
1, corners 0) at their grid cell.  Three accumulators build on that: a
monotone tracking grid G, a violation grid whose red and couple layers
combine with G as presence, and a decaying crowd grid for ventilated
scenes with its long-term moving average.  A frame's stamps on a grid are
one `np.add.at`, adding in the order of one `stamp_kernel` call per person.

The crowd recurrences touch only live rectangles, which cover every cell
some crowd stamp has reached, the kernel's +-1 rows and columns included.
A cell never stamped is 0.0 in the crowd grid and in its average, and
`0*gamma` and `s*0 + (1-s)*0` are exactly 0, so skipping it changes no bit.
A stretch of k frames with nobody in it can also be advanced in one
closed-form step (`advance_empty`), which agrees with k single steps to
rounding.  The combined violation grid is summed only on the rows where one
of its layers is not +0.0, for the same reason.
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


_NO_CELLS = np.zeros(0, dtype=np.intp)


def _stamp_positions(grid: RiskGrid, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stamp the kernel at the cell of each (n, 2) BEV point; return the (rows, cols) it reached.

    A point's cell is (floor(xw / cell_scale), floor(yw / cell_scale)); off-grid
    points count on grid.dropped.  `np.add.at` adds unbuffered in index order,
    point by point and then kernel offset by offset, as stamp_kernel would.
    An empty set of points returns before any numpy call.
    """
    if not len(xy):
        return _NO_CELLS, _NO_CELLS
    col = np.floor(xy[:, 0] / grid.cell_scale)
    row = np.floor(xy[:, 1] / grid.cell_scale)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    grid.dropped += len(xy) - int(np.count_nonzero(inside))
    rows = row[inside].astype(np.intp)[:, None] + _KERNEL_DR
    cols = col[inside].astype(np.intp)[:, None] + _KERNEL_DC
    ok = (rows >= 0) & (rows < grid.height) & (cols >= 0) & (cols < grid.width)
    reached = rows[ok], cols[ok]
    np.add.at(grid.values, reached, np.broadcast_to(_KERNEL_W, ok.shape)[ok])
    return reached


def accumulate_tracking(grid: RiskGrid, pos: FramePositions) -> RiskGrid:
    """Stamp every detected person for this frame onto the tracking grid."""
    _stamp_positions(grid, pos.xy)
    return grid


# Float temporaries of at most this many cells stay below glibc's initial
# mmap threshold (128 KiB): the heap hands the same memory back each time,
# and freeing them leaves the threshold, and the run's peak memory, where
# they found it.  The combined sum goes in blocks of this size.
_HEAP_CELLS = 8192


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
        step = max(1, _HEAP_CELLS // self.width)
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


# The crowd grids are swept on rectangles built from tiles of _BAND_ROWS rows
# by _CHUNK_COLS columns.  A band is cut down to the columns from its first
# reached tile to its last only while that skips at least _MIN_SKIP_COLS
# columns: a numpy call on one more rectangle costs about as much as
# sweeping that many columns of a few rows.  A band that is cut down covers
# all its rows.  A band that spans whole rows covers only its live rows and
# merges with its neighbours into the runs of live rows; it stays whole,
# since its reached columns only grow.
_BAND_ROWS = 16
_CHUNK_BITS = 6  # a tile is 2**6 = 64 columns wide
_CHUNK_COLS = 1 << _CHUNK_BITS
_MIN_SKIP_COLS = 1024


@dataclass
class CrowdGrid:
    """Decaying occupancy grid for scenes with ventilation.

    Cells decay by decay_gamma each frame before new stamps land, so a
    steadily occupied cell converges to stamp_weight / (1 - gamma).

    `live_rects` lists (rows, columns) slice pairs, in row order, that cover
    every cell that holds or has held mass; every other cell is 0.0.  They
    are built from the tiles stamps have reached (see _BAND_ROWS) and the
    live rows, the rows holding a stamped cell.  A frame whose stamps all
    land in covered cells changes neither, so the rectangles are rebuilt
    only when a stamp lands outside them.  Write to `values` only through
    `crowd_step` and `advance_empty`, which keep them up to date.
    """

    width: int
    height: int
    decay_gamma: float = RiskConfig.decay_gamma
    cell_scale: float = RiskConfig.cell_scale
    grid: RiskGrid = field(default=None)  # type: ignore[assignment]
    live_rects: list[tuple[slice, slice]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.decay_gamma <= 1.0):
            raise ValueError(f"decay_gamma must be in (0, 1], got {self.decay_gamma}")
        given = self.grid is not None
        if not given:
            self.grid = RiskGrid(self.width, self.height, self.cell_scale)
        height, chunks = self.grid.height, -(-self.grid.width // _CHUNK_COLS)
        self._live = np.zeros(height, dtype=bool)
        self._tiles = np.zeros((-(-height // _BAND_ROWS), chunks), dtype=bool)
        self._covered = np.zeros((height, chunks), dtype=bool)  # [r, c]: row r of chunk c
        self.live_rects = []
        if given:  # a new grid is all zeros: reading it would only fault its pages in
            self._mark(*np.nonzero(self.grid.values))

    @property
    def values(self) -> np.ndarray:
        return self.grid.values

    def _mark(self, rows: np.ndarray, cols: np.ndarray) -> None:
        chunk = cols >> _CHUNK_BITS
        if self._covered[rows, chunk].all():
            return
        self._live[rows] = True
        self._tiles[rows // _BAND_ROWS, chunk] = True
        self._rebuild()

    def _rebuild(self) -> None:
        height, width = self.grid.height, self.grid.width
        tiles = self._tiles
        first = tiles.argmax(axis=1) * _CHUNK_COLS
        stop = np.minimum((tiles.shape[1] - tiles[:, ::-1].argmax(axis=1)) * _CHUNK_COLS, width)
        whole = width - (stop - first) < _MIN_SKIP_COLS
        # a band cut down to its columns covers all its rows: a stamp on a new row needs no rebuild
        self._live |= np.repeat(tiles.any(axis=1) & ~whole, _BAND_ROWS)[:height]
        first[whole], stop[whole] = 0, width
        # one key per row for its span, -1 for a dead row and for the rows
        # around the grid: a rectangle is a run of one key >= 0
        span = np.repeat(first * (width + 1) + stop, _BAND_ROWS)[:height]
        key = np.full(height + 2, -1)
        key[1:-1] = np.where(self._live, span, -1)
        edges = np.flatnonzero(key[1:] != key[:-1])
        starts, stops, keys = edges[:-1], edges[1:], key[edges[:-1] + 1]
        kept = keys >= 0
        self.live_rects = [
            (slice(r0, r1), slice(*divmod(k, width + 1)))
            for r0, r1, k in zip(starts[kept].tolist(), stops[kept].tolist(), keys[kept].tolist())
        ]
        self._covered[:] = False
        for rect_rows, rect_cols in self.live_rects:
            self._covered[rect_rows, rect_cols.start >> _CHUNK_BITS:
                          -(-rect_cols.stop >> _CHUNK_BITS)] = True


def crowd_step(cg: CrowdGrid, pos: FramePositions) -> CrowdGrid:
    """Decay the live rectangles, then stamp the currently occupied cells."""
    values = cg.grid.values
    for cells in cg.live_rects:
        part = values[cells]
        part *= cg.decay_gamma
    cg._mark(*_stamp_positions(cg.grid, pos.xy))
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

    def _weighted(self, crowd: np.ndarray, weight: float) -> np.ndarray:
        """crowd * weight; above _HEAP_CELLS cells, in a buffer kept as tall as the tallest so far.

        The buffer is overwritten by the next call.  A fresh product that
        large each frame would be memory the allocator hands back and faults
        in again.
        """
        if crowd.size <= _HEAP_CELLS:
            return crowd * weight
        rows, cols = crowd.shape
        if len(self._blend) < rows:
            self._blend = np.empty((rows, self.values.shape[1]))
        return np.multiply(crowd, weight, out=self._blend[:rows, :cols])

    def update(self, crowd_values: np.ndarray,
               rects: list[tuple[slice, slice]] | None = None) -> None:
        """Fold one crowd map in, on the (rows, columns) slice rectangles or the whole grid.

        Cells outside `rects` must be 0.0 here and in crowd_values, where
        the update would leave them 0.0.
        """
        for cells in (np.s_[:, :],) if rects is None else rects:
            part = self.values[cells]
            part *= self.smoothing
            part += self._weighted(crowd_values[cells], 1.0 - self.smoothing)


def advance_empty(cg: CrowdGrid, long_term: LongTermCrowd, k: int) -> None:
    """Advance both crowd grids over k frames with nobody in them, in one step.

    Equals k rounds of `crowd_step` with no positions and
    `long_term.update(cg.values, cg.live_rects)` up to rounding:
    C <- g**k * C and L <- s**k * L + (1-s) * g * decay_sum(s, g, k) * C.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 frames, got {k}")
    g, s = cg.decay_gamma, long_term.smoothing
    crowd_weight = (1.0 - s) * g * decay_sum(s, g, k)
    for cells in cg.live_rects:
        crowd = cg.values[cells]
        part = long_term.values[cells]
        part *= s ** k
        part += long_term._weighted(crowd, crowd_weight)
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
