"""Seeded input generators for the three benchmark workloads.

Each generator returns a `Workload`: the detection lines the program reads,
the run config it loads, and the counts the output checks compare against.
The same seed always gives the same lines.  Every walker stays at least two
grid cells inside the risk grids, so no stamp is clipped or dropped and the
grid sums follow exactly from the per-frame head counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 12

_CONFIG_TEMPLATE = (
    "[homography]\n"
    "matrix = 1 0 0 0 1 0 0 0 1\n"
    "[policy]\n"
    "xi_px_per_m = 10.0\n"
    "r_px = 20\n"
    "fps = 25.0\n"
    "[risk]\n"
    "grid_width = {grid_width}\n"
    "grid_height = {grid_height}\n"
    "cell_scale = {cell_scale}\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # detection file format: "mot" or "jsonl"
    lines: list[str]
    config_text: str
    grid_shape: tuple[int, int]  # (rows, cols) of every value table
    first_frame: int
    last_frame: int
    valid: int  # records that pass ingest, below-confidence ones included
    below_conf: int  # valid records under the default conf_threshold (0.3)
    non_positive: int  # records with a non-positive side, dropped at ingest


def _config(grid_width: int, grid_height: int, cell_scale: float = 1.0) -> str:
    return _CONFIG_TEMPLATE.format(
        grid_width=grid_width, grid_height=grid_height, cell_scale=cell_scale
    )


def _mot_line(frame: int, cx: float, cy: float, w: float, h: float, conf: float) -> str:
    return (
        f"{frame},-1,{cx - w / 2.0:.2f},{cy - h / 2.0:.2f},{w:.2f},{h:.2f},{conf:.2f},-1,-1,-1"
    )


DENSE_LANES_FRAMES = 1200


def dense_lanes_lines(n_frames: int, lanes: int = 20, seed: int = DEFAULT_SEED) -> list[str]:
    """`lanes` walkers on wrapping horizontal lanes, one detection each per frame.

    Lanes are 27 px apart, wider than the 20 px safe distance, so the scene
    has no violations and no couples.
    """
    rng = np.random.default_rng(seed)
    y_rows = np.linspace(60, 580, lanes)
    speeds = rng.uniform(0.8, 1.8, size=lanes)
    offsets = rng.uniform(0, 600, size=lanes)
    lines = []
    for frame in range(1, n_frames + 1):
        for k in range(lanes):
            cx = (offsets[k] + speeds[k] * frame) % 600.0 + 20.0
            cy = y_rows[k] + rng.uniform(-0.4, 0.4)
            lines.append(
                f"{frame},-1,{cx - 15.0:.2f},{cy - 40.0:.2f},30.00,80.00,0.90,-1,-1,-1"
            )
    return lines


def dense_lanes(seed: int) -> Workload:
    n = DENSE_LANES_FRAMES
    return Workload(
        name="dense-lanes", fmt="mot", lines=dense_lanes_lines(n, seed=seed),
        config_text=_config(640, 640), grid_shape=(640, 640),
        first_frame=1, last_frame=n, valid=20 * n, below_conf=0, non_positive=0,
    )


CROWD_FRAMES = 200
CROWD_SINGLES = 100
CROWD_COUPLES = 50
CROWD_LOW_CONF_PER_FRAME = 4
_FIELD_W, _FIELD_H = 1920.0, 1080.0
_BOX_W, _BOX_H = 24.0, 60.0
_MARGIN = 40.0
_NON_POSITIVE_SIDES = ((0.0, _BOX_H), (_BOX_W, -_BOX_H))  # (w, h), one record each a frame


def _bounce(pos: np.ndarray, lo: float, hi: float, vel: np.ndarray) -> None:
    """Reflect positions that left [lo, hi] back inside, flipping their velocity."""
    low = pos < lo
    pos[low] = 2 * lo - pos[low]
    vel[low] = -vel[low]
    high = pos > hi
    pos[high] = 2 * hi - pos[high]
    vel[high] = -vel[high]


def crowd_jsonl(seed: int) -> Workload:
    """About 200 people with random headings on a 1920x1080 field, as JSON lines.

    Half of them walk in couples, 8 px (0.8 m) apart side by side, so couples
    form once a pair has been close for more than 125 frames.  Each frame
    also carries a fixed number of low-confidence clutter boxes and of
    records with a non-positive side.
    """
    rng = np.random.default_rng(seed)
    movers = CROWD_SINGLES + CROWD_COUPLES  # a couple moves as one centre point
    x_lo, x_hi = _MARGIN, _FIELD_W - _MARGIN
    y_lo, y_hi = _MARGIN, _FIELD_H - _MARGIN - _BOX_H / 2.0
    x = rng.uniform(x_lo, x_hi, size=movers)
    y = rng.uniform(y_lo, y_hi, size=movers)
    heading = rng.uniform(0.0, 2.0 * math.pi, size=movers)
    speed = rng.uniform(0.6, 1.6, size=movers)
    vx, vy = speed * np.cos(heading), speed * np.sin(heading)

    lines = []
    for frame in range(1, CROWD_FRAMES + 1):
        x += vx
        y += vy
        _bounce(x, x_lo, x_hi, vx)
        _bounce(y, y_lo, y_hi, vy)
        people = []
        for k in range(movers):
            if k < CROWD_SINGLES:
                people.append((x[k], y[k]))
            else:
                people.append((x[k] - 4.0, y[k]))
                people.append((x[k] + 4.0, y[k]))
        jitter = rng.uniform(-0.4, 0.4, size=(len(people), 2))
        conf = rng.uniform(0.5, 0.99, size=len(people))
        records = [
            (cx + jx, cy + jy, _BOX_W, _BOX_H, c)
            for (cx, cy), (jx, jy), c in zip(people, jitter, conf)
        ]
        for _ in range(CROWD_LOW_CONF_PER_FRAME):
            records.append((rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi),
                            _BOX_W, _BOX_H, rng.uniform(0.05, 0.25)))
        for w, h in _NON_POSITIVE_SIDES:
            records.append((rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi), w, h, 0.9))
        for cx, cy, w, h, c in records:
            lines.append(
                f'{{"frame": {frame}, "x": {cx:.2f}, "y": {cy:.2f}, '
                f'"w": {w:.2f}, "h": {h:.2f}, "conf": {c:.2f}}}'
            )
    per_frame_valid = CROWD_SINGLES + 2 * CROWD_COUPLES + CROWD_LOW_CONF_PER_FRAME
    return Workload(
        name="crowd-jsonl", fmt="jsonl", lines=lines,
        config_text=_config(240, 240, 8.0), grid_shape=(240, 240),
        first_frame=1, last_frame=CROWD_FRAMES,
        valid=per_frame_valid * CROWD_FRAMES,
        below_conf=CROWD_LOW_CONF_PER_FRAME * CROWD_FRAMES,
        non_positive=len(_NON_POSITIVE_SIDES) * CROWD_FRAMES,
    )


SPARSE_PEOPLE = 4
SPARSE_BURST = 100
SPARSE_GAP = 100
SPARSE_BURSTS = 2
SPARSE_GRID = 2048


def sparse_2048(seed: int) -> Workload:
    """Four people in 100-frame bursts with 100 empty frames between bursts.

    The gaps have no detection lines at all; the program still processes
    every frame from the first detection to the last.
    """
    rng = np.random.default_rng(seed)
    lines = []
    frame = 0
    for burst in range(SPARSE_BURSTS):
        # quadrant starts keep the four people hundreds of pixels apart
        x = rng.uniform(200, 800, size=SPARSE_PEOPLE) + np.array([0, 1000, 0, 1000])
        y = rng.uniform(200, 800, size=SPARSE_PEOPLE) + np.array([0, 0, 1000, 1000])
        heading = rng.uniform(0.0, 2.0 * math.pi, size=SPARSE_PEOPLE)
        vx, vy = np.cos(heading), np.sin(heading)
        for t in range(SPARSE_BURST):
            frame += 1
            for k in range(SPARSE_PEOPLE):
                cx = x[k] + vx[k] * t + rng.uniform(-0.4, 0.4)
                cy = y[k] + vy[k] * t + rng.uniform(-0.4, 0.4)
                lines.append(_mot_line(frame, cx, cy, 30.0, 80.0, 0.9))
        if burst < SPARSE_BURSTS - 1:
            frame += SPARSE_GAP
    return Workload(
        name="sparse-2048", fmt="mot", lines=lines,
        config_text=_config(SPARSE_GRID, SPARSE_GRID), grid_shape=(SPARSE_GRID, SPARSE_GRID),
        first_frame=1, last_frame=frame,
        valid=SPARSE_PEOPLE * SPARSE_BURST * SPARSE_BURSTS, below_conf=0, non_positive=0,
    )


GENERATORS = {"dense-lanes": dense_lanes, "crowd-jsonl": crowd_jsonl, "sparse-2048": sparse_2048}
