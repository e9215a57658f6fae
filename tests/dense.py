"""Dense reference forms of the pair searches, kept as test oracles.

The library finds close pairs and overlapping boxes by sweeping x-sorted
points (`geometry.candidate_pairs`).  These are the forms it replaced: every
pair of points or boxes evaluated through one (n, m) matrix, with the same
arithmetic, so the library's answers must match them bit for bit and row
for row.
"""

from __future__ import annotations

import numpy as np

from crowdrisk.distancing import CoupleRegistry, DistancePolicy, FramePositions, ZoneLabel
from crowdrisk.geometry import as_rows


def all_pairs(left, right, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) pair in row-major order: the dense stand-in for
    `candidate_pairs`, whose callers test each candidate exactly."""
    return np.divmod(np.arange(len(left) * len(right)), len(right))


def dense_iou_matrix(rows, cols) -> np.ndarray:
    """Pairwise IoU of two (n, 4) center-format box arrays over the full (n, m) matrix."""
    A, B = as_rows(rows, 4, "rows"), as_rows(cols, 4, "cols")
    a_lo, a_hi = A[:, :2] - A[:, 2:] / 2.0, A[:, :2] + A[:, 2:] / 2.0
    b_lo, b_hi = (B[:, :2] - B[:, 2:] / 2.0).T, (B[:, :2] + B[:, 2:] / 2.0).T
    iw = np.minimum(a_hi[:, 0, None], b_hi[0]) - np.maximum(a_lo[:, 0, None], b_lo[0])
    ih = np.minimum(a_hi[:, 1, None], b_hi[1]) - np.maximum(a_lo[:, 1, None], b_lo[1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (A[:, 2] * A[:, 3])[:, None] + B[:, 2] * B[:, 3] - inter
    return np.minimum(inter / union, 1.0)


def ground_distances(a, b) -> np.ndarray:
    """(n, m) L2 distances between (n, 2) and (m, 2) ground-point arrays."""
    a, b = as_rows(a, 2, "a"), as_rows(b, 2, "b")
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


def close_pairs(pos: FramePositions, limit: float) -> np.ndarray:
    """(k, 2) row pairs (a < b) at most `limit` apart, in row-major order."""
    pairs = np.argwhere(ground_distances(pos.xy, pos.xy) <= limit)
    return pairs[pairs[:, 0] < pairs[:, 1]]


def advance_couples(counters: dict, pos: FramePositions, policy: DistancePolicy) -> dict:
    """The couple counters after one more frame of `pos`."""
    ids = pos.ids
    near = [tuple(sorted((ids[a], ids[b]))) for a, b in close_pairs(pos, policy.couple_d_px).tolist()]
    return {pair: counters.get(pair, 0) + 1 for pair in near}


def classify_zones(pos: FramePositions, registry: CoupleRegistry,
                   policy: DistancePolicy) -> dict[int, ZoneLabel]:
    """Zone labels from the frame's (n, n) distance matrix and (k, n) and
    (k, k) couple-midpoint matrices."""
    n = len(pos.ids)
    dist = ground_distances(pos.xy, pos.xy)
    row = pos.row
    candidates = []
    for id_a, id_b in registry.couples(policy):
        if id_a in row and id_b in row:
            a, b = row[id_a], row[id_b]
            candidates.append((float(dist[a, b]), id_a + id_b, (id_a, id_b), a, b))
    mate = np.full(n, -1)
    for *_, a, b in sorted(candidates):
        if mate[a] < 0 and mate[b] < 0:
            mate[a], mate[b] = b, a

    red = np.zeros(n, dtype=bool)
    a, b = close_pairs(pos, policy.r).T
    breach = mate[a] != b
    red[a[breach]] = red[b[breach]] = True
    paired = mate >= 0
    if paired.any():
        ids = np.asarray(pos.ids, dtype=np.int64)
        first = np.flatnonzero(paired & (ids < ids[mate]))
        ia = first[np.argsort(ids[first], kind="stable")]
        ib = mate[ia]
        mids = (pos.xy[ia] + pos.xy[ib]) / 2.0
        d_c = dist[ia, ib]
        radius = policy.r + d_c / 2.0
        near = (ground_distances(mids, pos.xy) <= radius[:, None]) & ~paired
        red |= near.any(axis=0)
        hit = near.any(axis=1)
        touching = np.triu(ground_distances(mids, mids) <= radius[:, None] + d_c / 2.0, k=1)
        hit |= touching.any(axis=1) | touching.any(axis=0)
        red[ia[hit]] = red[ib[hit]] = True
        red[mate[red & paired]] = True
    zones = (ZoneLabel.SAFE, ZoneLabel.POTENTIALLY_RISKY, ZoneLabel.HIGH_RISK)
    return {tid: zones[code] for tid, code in zip(pos.ids, np.where(red, 2, paired).tolist())}
