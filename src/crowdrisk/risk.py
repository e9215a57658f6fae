"""Spatio-temporal risk accumulation on 2-D grids.

Every person stamps a small cross-shaped kernel (center 2, edge neighbors
1, corners 0) at their grid cell.  Three accumulators build on that: a
monotone tracking grid G, a violation grid whose red and couple layers
combine with G as presence, and a decaying crowd grid for ventilated
scenes with its long-term moving average.  A frame's stamps on a grid are
one `np.add.at`, adding in the order of one `stamp_kernel` call per person.

The crowd grid and its average follow C = g*C + S and L = s*L + (1-s)*C
on every frame, but each cell is brought up to date only in the frames
that stamp it, and once more by `advance_to` before the grids are read: k
frames of both recurrences have a closed form (`decay_sum`).  So a frame's
crowd work follows its people, and a frame with nobody in it touches no
cell.

Each grid keeps a record of the cells its stamps have reached: a stamp
records the cells that were +0.0 before it (on the crowd grid, the cells
whose clock was 0), and every cell outside the record is +0.0.  The end of
a run visits only those cells: `advance_to` brings the crowd grid's
recorded cells up to date, `ViolationGrid.combined` sums only on the union
of the records of its layers and presence, and the writers in `rasters`
take the records as their candidate cells.
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
    (never clamped to the border) and counted in `dropped`.  `reached()`
    gives the cells stamps have reached; every other cell is +0.0.
    """

    width: int
    height: int
    cell_scale: float = RiskConfig.cell_scale
    values: np.ndarray = field(init=False, repr=False)
    dropped: int = 0
    # flat cells recorded by the stamps, in parts; see _record
    _parts: list[np.ndarray] = field(init=False, repr=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.cell_scale <= 0:
            raise ValueError(f"cell_scale must be positive, got {self.cell_scale}")
        self.values = grid_zeros(self.height, self.width)

    def _record(self, cells: np.ndarray) -> None:
        """Add the flat cells a stamp reached for the first time to the record.

        Stamps add positive weights, so a cell is +0.0 only before its first
        stamp (on the crowd grid, which decays, its clock is 0 only then):
        each cell enters the record in one stamp call, and the record grows
        with the cells reached, not with the stream.  Past _RECORD_PARTS
        parts they are joined into one, so a long stream keeps few parts.
        """
        if len(cells):
            self._parts.append(cells)
            if len(self._parts) > _RECORD_PARTS:
                self._parts = [np.concatenate(self._parts)]

    def reached(self) -> np.ndarray:
        """The sorted, distinct flat indices (row * width + col) of the cells stamps reached."""
        self._parts = [_distinct_cells(*self._parts)]
        return self._parts[0]


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
            if v[r, c] == 0.0:
                grid._record(np.array([r * grid.width + c]))
            v[r, c] += w
    return grid


_NO_CELLS = np.zeros(0, dtype=np.intp)
_NO_VALUES = np.zeros(0)
# A grid's record is joined into one part when it holds more parts than this.
_RECORD_PARTS = 64


def _distinct_cells(*parts: np.ndarray) -> np.ndarray:
    """The distinct flat cell indices in parts, sorted."""
    # np.union1d would do, but its first call on integers imports numpy.ma,
    # ~20 ms in every process
    cells = np.sort(np.concatenate([_NO_CELLS, *parts]))
    return cells[np.diff(cells, prepend=-1) != 0]


def _kernel_cells(grid: RiskGrid, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat cells (row * width + col) and weights the kernel adds at the cell of each (n, 2) BEV point.

    A point's cell is (floor(xw / cell_scale), floor(yw / cell_scale)); off-grid
    points count on grid.dropped.  The cells come point by point and then
    kernel offset by offset, as stamp_kernel would add them.  An empty set
    of points returns before any numpy call.
    """
    if not len(xy):
        return _NO_CELLS, _NO_VALUES
    col = np.floor(xy[:, 0] / grid.cell_scale)
    row = np.floor(xy[:, 1] / grid.cell_scale)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    grid.dropped += len(xy) - int(np.count_nonzero(inside))
    rows = row[inside].astype(np.intp)[:, None] + _KERNEL_DR
    cols = col[inside].astype(np.intp)[:, None] + _KERNEL_DC
    ok = (rows >= 0) & (rows < grid.height) & (cols >= 0) & (cols < grid.width)
    return (rows * grid.width + cols)[ok], np.broadcast_to(_KERNEL_W, ok.shape)[ok]


def _stamp_positions(grid: RiskGrid, xy: np.ndarray) -> None:
    """Stamp the kernel at the cell of each (n, 2) BEV point, recording the cells it reaches first.

    `np.add.at` adds unbuffered in index order, as stamp_kernel would.
    """
    cells, weights = _kernel_cells(grid, xy)
    if len(cells):
        flat = grid.values.reshape(-1)
        grid._record(cells[flat[cells] == 0.0])
        np.add.at(flat, cells, weights)


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
    layer_r: RiskGrid = field(init=False)
    layer_y: RiskGrid = field(init=False)

    def __post_init__(self) -> None:
        if not all(c >= 0 and math.isfinite(c) for c in (self.alpha, self.beta, self.delta)):
            raise ValueError("risk coefficients must be finite and non-negative")
        self.layer_r = RiskGrid(self.width, self.height, self.cell_scale)
        self.layer_y = RiskGrid(self.width, self.height, self.cell_scale)

    def combined(self, presence: RiskGrid) -> tuple[np.ndarray, np.ndarray]:
        """alpha*R + beta*presence + delta*Y, and the cells of the three layers' records.

        The sum is taken only on those cells (sorted flat indices), in blocks
        of at most _HEAP_CELLS cells.  Every other cell is +0.0 in all three
        layers, and so in the sum, since the coefficients are finite and
        non-negative.
        """
        cells = _distinct_cells(self.layer_r.reached(), presence.reached(), self.layer_y.reached())
        r, p, y = (grid.values.reshape(-1) for grid in (self.layer_r, presence, self.layer_y))
        out = grid_zeros(self.height, self.width)
        flat = out.reshape(-1)
        for start in range(0, len(cells), _HEAP_CELLS):
            block = cells[start:start + _HEAP_CELLS]
            flat[block] = self.alpha * r[block] + self.beta * p[block] + self.delta * y[block]
        return out, cells


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

    C = gamma*C + S each frame, with S the frame's stamps, so a steadily
    occupied cell converges to stamp_weight / (1 - gamma).

    Each cell keeps a clock: the frame its value was last brought up to
    date, counted from the frame before the grid's first step.
    `crowd_step` brings only the cells it stamps up to date; the others lag
    until `advance_to` brings the whole grid to a frame.  Read `values`
    after that.
    """

    width: int
    height: int
    decay_gamma: float = RiskConfig.decay_gamma
    cell_scale: float = RiskConfig.cell_scale

    def __post_init__(self) -> None:
        if not (0.0 < self.decay_gamma <= 1.0):
            raise ValueError(f"decay_gamma must be in (0, 1], got {self.decay_gamma}")
        self.grid = RiskGrid(self.width, self.height, self.cell_scale)
        self._clock = grid_zeros(self.height, self.width).reshape(-1)
        self._origin: int | None = None  # the frame before the first step
        self._now = 0  # the latest frame brought up to date, on the clock
        # the latest step's flat cells, their gaps in frames and their values before it
        self._stamped = _NO_CELLS, _NO_VALUES, _NO_VALUES

    @property
    def values(self) -> np.ndarray:
        return self.grid.values

    def _tick(self, frame: int, step: bool) -> int:
        """frame on the grid's clock; a step must come after the latest frame."""
        if self._origin is None:
            self._origin = frame - 1
        now = frame - self._origin
        if now < self._now + step:
            raise ValueError(f"frame {frame} is not after frame {self._origin + self._now}")
        self._now = now
        return now


def crowd_step(cg: CrowdGrid, pos: FramePositions) -> CrowdGrid:
    """Bring the cells pos stamps up to frame pos.frame, then stamp them.

    A cell last brought to frame t0 takes C <- gamma**(frame - t0) * C + S.
    A cell several people stamp writes the same decayed value once per
    stamp before the stamps add, in the order stamp_kernel would add them.
    """
    now = cg._tick(pos.frame, step=True)
    cells, weights = _kernel_cells(cg.grid, pos.xy)
    crowd = cg.values.reshape(-1)
    before = crowd[cells]
    gaps = now - cg._clock[cells]
    cg.grid._record(cells[gaps == now])  # their clocks were 0: never stamped
    crowd[cells] = before * cg.decay_gamma ** gaps
    np.add.at(crowd, cells, weights)
    cg._clock[cells] = now
    cg._stamped = cells, gaps, before
    return cg


def decay_sum(s: float, g: float, k: int | np.ndarray) -> float | np.ndarray:
    """The sum over j < k of s**(k-1-j) * g**j, for s, g in [0, 1], g > 0 and k >= 0.

    k may be an array, and the sum is taken elementwise.  Factors out the
    larger base a and sums the geometric series in q = b/a <= 1 through
    expm1, with log(q) taken as log1p((b - a)/a): b - a is exact when the
    bases are close, so the result stays accurate when s is within a few
    ulps of g, where (q**k - 1)/(q - 1) would lose most digits.
    """
    a, b = max(s, g), min(s, g)
    if b == a:
        return k * a ** (k - 1)
    if b == 0.0:
        return (k > 0) * a ** (k - 1)
    log_q = math.log1p((b - a) / a)
    return a ** (k - 1) * (np.expm1(k * log_q) / math.expm1(log_q))


@dataclass
class LongTermCrowd:
    """Exponential moving average over single-frame crowd maps.

    L = s*L + (1-s)*C each frame, with s the smoothing.  Its cells are
    brought up to date on the same frames as those of the CrowdGrid it
    updates from.
    """

    width: int
    height: int
    smoothing: float = RiskConfig.long_term_smoothing
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.smoothing < 1.0):
            raise ValueError(f"smoothing must be in [0, 1), got {self.smoothing}")
        self.values = grid_zeros(self.height, self.width)

    def update(self, crowd: CrowdGrid) -> None:
        """Fold in the cells crowd's latest `crowd_step` brought up to date.

        The step's record is consumed: a repeat before the next step folds nothing.
        """
        cells, gaps, before = crowd._stamped
        crowd._stamped = _NO_CELLS, _NO_VALUES, _NO_VALUES
        self._catch_up(cells, gaps, before, crowd.values.reshape(-1)[cells], crowd.decay_gamma)

    def _catch_up(self, cells: np.ndarray, gaps: np.ndarray, before: np.ndarray,
                  after: np.ndarray, g: float) -> None:
        """L <- s**k * L + (1-s) * (C + s*g*decay_sum(s, g, k-1) * C0) on flat cells k >= 1 frames behind.

        C0 and C are a cell's crowd values k frames ago and now; the frames
        between held C0 * g**j.  With k = 1 this is s*L + (1-s)*C to the bit.
        """
        s = self.smoothing
        average = self.values.reshape(-1)
        between = before * (s * g * decay_sum(s, g, gaps - 1))
        average[cells] = average[cells] * s ** gaps + (after + between) * (1.0 - s)


def advance_to(cg: CrowdGrid, long_term: LongTermCrowd, frame: int) -> None:
    """Bring every cell of cg, and of the average that updates from it, up to frame.

    A cell k frames behind takes C <- g**k * C and the average's update
    with no stamp.  Only the cells in the grid's record (every cell a step
    has stamped) are visited, in blocks of at most _HEAP_CELLS cells.  The
    record is read as it was kept, unsorted: a cell met again is up to date
    and left alone.
    """
    if cg._origin is None:
        return  # nothing was ever stamped
    now = cg._tick(frame, step=False)
    crowd, clock = cg.values.reshape(-1), cg._clock
    for part in cg.grid._parts:
        for start in range(0, len(part), _HEAP_CELLS):
            cells = part[start:start + _HEAP_CELLS]
            gaps = now - clock[cells]
            behind = gaps > 0
            cells, gaps = cells[behind], gaps[behind]
            before = crowd[cells]
            crowd[cells] = after = before * cg.decay_gamma ** gaps
            long_term._catch_up(cells, gaps, before, after, cg.decay_gamma)
            clock[cells] = now


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
