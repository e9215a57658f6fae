"""Ground-plane distance rules: violations, couples, and zone labels.

All distances here are in BEV pixels; the pixel metric xi (px per meter)
converts the metric policy knobs.  Couple detection is stateful across
frames (consecutive-proximity counters), everything else is per frame.
A frame's positions are its track ids plus one (n, 2) array of ground
coordinates (`FramePositions`).  Every distance comes from
`ground_distances`; the (n, n) matrix of one frame is computed once
(`FramePositions.distances`) and shared by the violation, couple and zone
rules.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import GroundPoint


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


class _Entries:
    """(id, GroundPoint) pairs of a frame; the points are built only when iterated."""

    def __init__(self, pos: "FramePositions"):
        self.ids, self.xy = pos.ids, pos.xy

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return ((tid, GroundPoint(*p)) for tid, p in zip(self.ids, self.xy.tolist()))


@dataclass(frozen=True, eq=False)
class FramePositions:
    """Ground-plane positions in one frame: track ids and their (n, 2) array xy."""

    frame: int
    ids: list[int]
    xy: np.ndarray

    def __post_init__(self) -> None:
        if len(self.xy) != len(self.ids):
            raise ValueError(f"{len(self.ids)} ids but {len(self.xy)} points in frame {self.frame}")
        if len(self.row) != len(self.ids):
            raise ValueError(f"duplicate track ids in frame {self.frame}")

    @classmethod
    def from_pairs(cls, frame: int, pairs) -> "FramePositions":
        """Positions from (id, GroundPoint) pairs."""
        pairs = list(pairs)
        xy = np.array([(p.xw, p.yw) for _, p in pairs], dtype=float).reshape(-1, 2)
        return cls(frame, [tid for tid, _ in pairs], xy)

    @property
    def entries(self) -> _Entries:
        """(id, GroundPoint) pairs in row order; taking the length builds none."""
        return _Entries(self)

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


def violation(p_i: GroundPoint, p_j: GroundPoint, r: float) -> int:
    """1 iff the L2 distance between the two points is <= r, else 0."""
    return int(ground_distances((p_i.xw, p_i.yw), (p_j.xw, p_j.yw))[0, 0] <= r)


def _close_pairs(pos: FramePositions, limit: float) -> set[tuple[int, int]]:
    """Unordered id pairs (id_a < id_b) at most `limit` apart."""
    rows, cols = np.nonzero(np.triu(pos.distances <= limit, k=1))
    ids = pos.ids
    return {_ordered(ids[a], ids[b]) for a, b in zip(rows.tolist(), cols.tolist())}


def pairwise_violations(pos: FramePositions, policy: DistancePolicy) -> set[tuple[int, int]]:
    """All unordered id pairs closer than the safe distance (id_a < id_b)."""
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

    def _advance(self, near_pairs: set[tuple[int, int]]) -> None:
        self._counters = {pair: self._counters.get(pair, 0) + 1 for pair in near_pairs}


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def update_couples(
    registry: CoupleRegistry, pos: FramePositions, policy: DistancePolicy
) -> CoupleRegistry:
    """Advance the couple counters with one frame of positions."""
    registry._advance(_close_pairs(pos, policy.couple_d_px))
    return registry


def exclusive_couples(
    registry: CoupleRegistry, pos: FramePositions, policy: DistancePolicy
) -> dict[int, int]:
    """Assign each person to at most one couple partner.

    Couples are strictly pairwise: among flagged pairs present this frame,
    the closest pair wins first, ties broken by lower id sum, then by pair.
    Returns a symmetric partner map.
    """
    row = pos.row
    candidates = []
    for id_a, id_b in registry.couples(policy):
        if id_a in row and id_b in row:
            d = float(pos.distances[row[id_a], row[id_b]])
            candidates.append((d, id_a + id_b, (id_a, id_b)))
    partner: dict[int, int] = {}
    for _, _, (id_a, id_b) in sorted(candidates):
        if id_a not in partner and id_b not in partner:
            partner[id_a] = id_b
            partner[id_b] = id_a
    return partner


def classify_zones(
    pos: FramePositions,
    violations: set[tuple[int, int]],
    registry: CoupleRegistry,
    policy: DistancePolicy,
) -> dict[int, ZoneLabel]:
    """Label every person green (safe), red (high risk), or yellow (couple).

    Couple members whose only close contact is their partner are yellow and
    move as one identity.  Any breach against a non-partner turns everyone
    involved red — including both members of a breached couple.  A couple's
    external safety circle is centred on the pair midpoint with radius
    r + d_c/2 BEV px (safe distance preserved for each member), where d_c
    is the current partner separation.
    """
    row = pos.row
    for id_a, id_b in violations:
        if id_a not in row or id_b not in row:
            raise ValueError(
                f"violation pair ({id_a}, {id_b}) references ids absent from frame {pos.frame}"
            )

    partner = exclusive_couples(registry, pos, policy)
    red: set[int] = set()

    # Plain pairwise breaches between non-partners.
    for id_a, id_b in violations:
        if partner.get(id_a) != id_b:
            red.add(id_a)
            red.add(id_b)

    # Couple-level checks: midpoint circles against outsiders and other couples.
    couple_pairs = sorted({_ordered(a, b) for a, b in partner.items()})
    if couple_pairs:
        ia = [row[a] for a, _ in couple_pairs]
        ib = [row[b] for _, b in couple_pairs]
        mids = (pos.xy[ia] + pos.xy[ib]) / 2.0
        d_c = pos.distances[ia, ib]  # current partner separations
        radius = policy.r + d_c / 2.0
        outsider = np.array([pid not in partner for pid in pos.ids])
        near = (ground_distances(mids, pos.xy) <= radius[:, None]) & outsider
        for k, j in zip(*np.nonzero(near)):
            red.add(pos.ids[j])
            red.update(couple_pairs[k])
        # each pair of couples once, the earlier couple's circle first
        touching = ground_distances(mids, mids) <= radius[:, None] + d_c / 2.0
        for k, l in zip(*np.nonzero(np.triu(touching, k=1))):
            red.update(couple_pairs[k])
            red.update(couple_pairs[l])

    # A red partner drags the other member of the couple along.
    for pid in list(red):
        mate = partner.get(pid)
        if mate is not None:
            red.add(mate)

    labels: dict[int, ZoneLabel] = {}
    for pid in pos.ids:
        if pid in red:
            labels[pid] = ZoneLabel.HIGH_RISK
        elif pid in partner:
            labels[pid] = ZoneLabel.POTENTIALLY_RISKY
        else:
            labels[pid] = ZoneLabel.SAFE
    return labels


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
