"""Deterministic synthetic detection streams for pipeline tests.

Walkers move on straight lanes with seeded sub-pixel jitter; some pairs
walk together closely enough to register as couples, and crossing lanes
produce genuine distancing violations.  Identity homography keeps image
and BEV coordinates equal, so scene geometry is easy to reason about.

The bundled golden files were produced with:
    mot_lines(default_walkers(), 300, seed=5)   -> data/synthetic_300.det
    scene_config(grid=640, fps=25.0)            -> data/synthetic.cfg
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Walker:
    enter: int
    leave: int
    x0: float
    y0: float
    vx: float
    vy: float
    w: float = 30.0
    h: float = 80.0
    conf: float = 0.9


def default_walkers() -> list[Walker]:
    """Eight walkers: a close pair (couple), two crossing lanes, solo strollers."""
    return [
        # couple walking together, 8 px (~0.8 m) apart for the whole scene
        Walker(enter=1, leave=300, x0=40, y0=100, vx=1.2, vy=0.0),
        Walker(enter=1, leave=300, x0=40, y0=108, vx=1.2, vy=0.0),
        # two lanes that cross near frame 150 (violation burst)
        Walker(enter=10, leave=290, x0=30, y0=200, vx=1.5, vy=0.3),
        Walker(enter=10, leave=290, x0=450, y0=290, vx=-1.5, vy=-0.3),
        # solo strollers, far from everyone
        Walker(enter=1, leave=300, x0=80, y0=400, vx=1.0, vy=0.0),
        Walker(enter=40, leave=260, x0=520, y0=60, vx=-0.8, vy=0.5),
        Walker(enter=80, leave=300, x0=10, y0=330, vx=1.4, vy=-0.1),
        # brief appearance: exercises track birth and death
        Walker(enter=120, leave=170, x0=300, y0=440, vx=0.0, vy=-1.0),
    ]


def mot_lines(walkers: list[Walker], n_frames: int, seed: int = 5) -> list[str]:
    rng = np.random.default_rng(seed)
    lines = []
    for frame in range(1, n_frames + 1):
        for walker in walkers:
            if not (walker.enter <= frame <= walker.leave):
                continue
            t = frame - walker.enter
            cx = walker.x0 + walker.vx * t + rng.uniform(-0.5, 0.5)
            cy = walker.y0 + walker.vy * t + rng.uniform(-0.5, 0.5)
            left = cx - walker.w / 2.0
            top = cy - walker.h / 2.0
            lines.append(
                f"{frame},-1,{left:.2f},{top:.2f},{walker.w:.2f},{walker.h:.2f},"
                f"{walker.conf:.2f},-1,-1,-1"
            )
    return lines


def scene_config(grid: int = 640, fps: float = 25.0) -> str:
    """Identity-homography run config matching the synthetic scenes."""
    return (
        "[homography]\n"
        "matrix = 1 0 0 0 1 0 0 0 1\n"
        "[policy]\n"
        "xi_px_per_m = 10.0\n"
        "r_px = 20\n"
        f"fps = {fps}\n"
        "[risk]\n"
        f"grid_width = {grid}\n"
        f"grid_height = {grid}\n"
    )


def crowd_stream_lines(n_frames: int, lanes: int = 20, seed: int = 12) -> list[str]:
    """A dense scene: `lanes` simultaneous walkers for every frame.

    Walkers sweep horizontally and wrap around, so detections stay inside
    the scene for arbitrarily long streams.
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


def crowd_walkers(singles: int, couples: int, seed: int, field: float = 1000.0) -> list[Walker]:
    """`singles` lone walkers and `couples` pairs 8 px (0.8 m) apart, present
    from frame 1 to 100 on random headings at under 1 px a frame.

    Starts keep a 120 px margin, so everyone stays inside the square field
    for 100 frames; a couple's members share one velocity.
    """
    rng = np.random.default_rng(seed)
    movers = singles + couples
    x0, y0 = rng.uniform(120.0, field - 120.0, size=(2, movers))
    heading = rng.uniform(0.0, 2.0 * np.pi, size=movers)
    speed = rng.uniform(0.2, 1.0, size=movers)
    vx, vy = speed * np.cos(heading), speed * np.sin(heading)
    walkers = []
    for k in range(movers):
        offsets = (0.0,) if k < singles else (-4.0, 4.0)
        for dx in offsets:
            walkers.append(Walker(enter=1, leave=100, x0=float(x0[k] + dx), y0=float(y0[k]),
                                  vx=float(vx[k]), vy=float(vy[k]), w=24.0, h=60.0))
    return walkers
