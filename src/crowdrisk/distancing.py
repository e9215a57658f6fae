"""Ground-plane distance rules: violations, couples, and zone labels.

All distances here are in BEV pixels; the pixel metric xi (px per meter)
converts the metric policy knobs.  Couple detection is stateful across
frames (consecutive-proximity counters), everything else is per frame.
A frame's positions are its track ids plus one (n, 2) array of ground
coordinates (`FramePositions`), and people are named by their row in it:
close pairs come as (k, 2) arrays of row pairs, each row pair in increasing
order.  Every distance comes from `ground_distances`; the (n, n) matrix of
one frame is computed once (`FramePositions.distances`) and shared by the
violation, couple and zone rules.  Only the couple counters are keyed by
id pair, because they outlive the frame.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import as_rows


@dataclass(frozen=True)
class DistancePolicy:
    """Distance thresholds for one camera scene.

    xi: BEV pixels per meter.
    r: safe distance in BEV pixels (people closer than this violate).
    couple_d: meters within which a pair may count as a couple.
    couple_eps: seconds of sustained proximity before the pair is a couple.
    fps: frames per second of the stream.
    """

    xi: float
    r: float
    couple_d: float = 1.0
    couple_eps: float = 5.0
    fps: float = 25.0

    def __post_init__(self) -> None:
        for name in ("xi", "r", "couple_d", "couple_eps", "fps"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"policy {name} must be positive, got {value}")

    @property
    def couple_d_px(self) -> float:
        return self.couple_d * self.xi

    @property
    def couple_frames(self) -> float:
        """Frame count above which sustained proximity makes a couple."""
        return self.couple_eps * self.fps


@dataclass(frozen=True, eq=False)
class FramePositions:
    """Ground-plane positions in one frame: track ids and their (n, 2) array xy."""

    frame: int
    ids: list[int]
    xy: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xy", as_rows(self.xy, 2, f"frame {self.frame} xy"))
        if len(self.xy) != len(self.ids):
            raise ValueError(f"{len(self.ids)} ids but {len(self.xy)} points in frame {self.frame}")
        if len(self.row) != len(self.ids):
            raise ValueError(f"duplicate track ids in frame {self.frame}")

    @property
    def entries(self) -> list[int]:
        """The ids again.  The benchmark's counters (perfbench/spans.py) read
        len(pos.entries); drop this once they read len(pos.ids)."""
        return self.ids

    @functools.cached_property
    def row(self) -> dict[int, int]:
        """Row of each id in `xy` and `distances`."""
        return {tid: i for i, tid in enumerate(self.ids)}

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """(n, n) ground distances between rows, computed on first use."""
        return ground_distances(self.xy, self.xy)


class ZoneLabel(enum.Enum):
    SAFE = "green"
    HIGH_RISK = "red"
    POTENTIALLY_RISKY = "yellow"


def ground_distances(a, b) -> np.ndarray:
    """(n, m) L2 distances between (n, 2) and (m, 2) ground-point arrays.

    The one distance definition of this module, so the scalar rule and the
    per-frame matrices round alike.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


def _close_pairs(pos: FramePositions, limit: float) -> np.ndarray:
    """(k, 2) row pairs (a < b) at most `limit` apart, in row-major order."""
    pairs = np.argwhere(pos.distances <= limit)
    return pairs[pairs[:, 0] < pairs[:, 1]]


def pairwise_violations(pos: FramePositions, policy: DistancePolicy) -> np.ndarray:
    """(k, 2) row pairs (a < b) of `pos` at most the safe distance r apart."""
    return _close_pairs(pos, policy.r)


class CoupleRegistry:
    """Consecutive-proximity counters per id pair, and the derived couple flags.

    A pair becomes a couple once it has stayed within couple_d meters for
    strictly more than couple_eps * fps consecutive frames; any frame of
    separation (or absence of either id) resets the counter to zero.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[int, int], int] = {}

    def counter(self, id_a: int, id_b: int) -> int:
        return self._counters.get(_ordered(id_a, id_b), 0)

    def couples(self, policy: DistancePolicy) -> set[tuple[int, int]]:
        thr = policy.couple_frames
        return {pair for pair, count in self._counters.items() if count > thr}

    def is_couple(self, id_a: int, id_b: int, policy: DistancePolicy) -> bool:
        return self.counter(id_a, id_b) > policy.couple_frames

    def _advance(self, near_pairs: Iterable[tuple[int, int]]) -> None:
        self._counters = {pair: self._counters.get(pair, 0) + 1 for pair in near_pairs}


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def update_couples(
    registry: CoupleRegistry, pos: FramePositions, policy: DistancePolicy
) -> CoupleRegistry:
    """Advance the couple counters with one frame of positions."""
    ids = pos.ids
    rows = _close_pairs(pos, policy.couple_d_px).tolist()
    registry._advance(_ordered(ids[a], ids[b]) for a, b in rows)
    return registry


def exclusive_couples(
    registry: CoupleRegistry, pos: FramePositions, policy: DistancePolicy
) -> np.ndarray:
    """Assign each person to at most one couple partner.

    Couples are strictly pairwise: among flagged pairs present this frame,
    the closest pair wins first, ties broken by lower id sum, then by pair.
    Returns the (n,) partner row of each row of `pos`, -1 for none.
    """
    row = pos.row
    candidates = []
    for id_a, id_b in registry.couples(policy):
        if id_a in row and id_b in row:
            a, b = row[id_a], row[id_b]
            candidates.append((float(pos.distances[a, b]), id_a + id_b, (id_a, id_b), a, b))
    mate = np.full(len(pos.ids), -1)
    for *_, a, b in sorted(candidates):
        if mate[a] < 0 and mate[b] < 0:
            mate[a], mate[b] = b, a
    return mate


_ZONES = (ZoneLabel.SAFE, ZoneLabel.POTENTIALLY_RISKY, ZoneLabel.HIGH_RISK)


def classify_zones(
    pos: FramePositions,
    violations: np.ndarray,
    registry: CoupleRegistry,
    policy: DistancePolicy,
) -> dict[int, ZoneLabel]:
    """Label every person green (safe), red (high risk), or yellow (couple).

    `violations` holds the (k, 2) row pairs of `pairwise_violations`; the
    labels are keyed by id.  Couple members whose only close contact is
    their partner are yellow and move as one identity.  Any breach against
    a non-partner turns everyone involved red — including both members of a
    breached couple.  A couple's external safety circle is centred on the
    pair midpoint with radius r + d_c/2 BEV px (safe distance preserved for
    each member), where d_c is the current partner separation.
    """
    n = len(pos.ids)
    if len(violations) and (violations.min() < 0 or violations.max() >= n):
        raise ValueError(f"violation rows outside 0..{n - 1} in frame {pos.frame}")

    mate = exclusive_couples(registry, pos, policy)
    red = np.zeros(n, dtype=bool)

    # Plain pairwise breaches between non-partners.
    a, b = violations.T
    breach = mate[a] != b
    red[a[breach]] = red[b[breach]] = True

    # Couple-level checks: midpoint circles against outsiders and other couples.
    paired = mate >= 0
    if paired.any():
        ids = np.asarray(pos.ids, dtype=np.int64)
        first = np.flatnonzero(paired & (ids < ids[mate]))  # lower-id member of each couple
        # couples in id-pair order: each lower id belongs to one couple only
        ia = first[np.argsort(ids[first], kind="stable")]
        ib = mate[ia]
        mids = (pos.xy[ia] + pos.xy[ib]) / 2.0
        d_c = pos.distances[ia, ib]  # current partner separations
        radius = policy.r + d_c / 2.0
        near = (ground_distances(mids, pos.xy) <= radius[:, None]) & ~paired
        red |= near.any(axis=0)
        hit = near.any(axis=1)
        # each pair of couples once, the earlier couple's circle first
        touching = np.triu(ground_distances(mids, mids) <= radius[:, None] + d_c / 2.0, k=1)
        hit |= touching.any(axis=1) | touching.any(axis=0)
        red[ia[hit]] = red[ib[hit]] = True
        # A red partner drags the other member of the couple along.
        red[mate[red & paired]] = True

    codes = np.where(red, 2, paired)
    return dict(zip(pos.ids, map(_ZONES.__getitem__, codes.tolist())))


@dataclass(frozen=True)
class FrameStats:
    """Population counts for one frame; total = red + 2*yellow_pairs + green."""

    total: int
    red: int
    yellow_pairs: int
    green: int


def frame_stats(labels: dict[int, ZoneLabel]) -> FrameStats:
    red = sum(1 for z in labels.values() if z is ZoneLabel.HIGH_RISK)
    yellow = sum(1 for z in labels.values() if z is ZoneLabel.POTENTIALLY_RISKY)
    green = sum(1 for z in labels.values() if z is ZoneLabel.SAFE)
    if yellow % 2:
        raise AssertionError("yellow people must come in exclusive pairs")
    return FrameStats(total=len(labels), red=red, yellow_pairs=yellow // 2, green=green)
