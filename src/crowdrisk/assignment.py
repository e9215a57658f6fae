"""Minimum-cost bipartite assignment by shortest augmenting paths.

The solver works on the r x c matrix with r = min(n, m) rows, transposing
when there are more tracks than detections; nothing is padded.  It follows
Jonker & Volgenant (Computing 38, 1987) in the rectangular form of Crouse
(IEEE TAES 52(4), 2016): a warm start gives each row the first column that
holds its minimum, and each row left without one gets one Dijkstra-style
shortest augmenting path over the reduced costs.

Among equal-cost optima the result is the lexicographically smallest match
set by (row, column).  The tie-break reads the k x k matrix (k = max(n, m))
of cells that are tight under the solver's potentials, where the missing
side is padding whose columns (the indices >= m) come after every real
column, so each row prefers a real column over being unmatched simply by
taking columns in ascending order.

The result is three intp index arrays, the matched pairs and each side's
leftovers, which the tracker gates and indexes its rows with as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reduced cells at most this many times the largest absolute cost or padding
# cost (or 1) are tight: ties that rounding hid are found again.
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Assignment:
    """Partition of rows (tracks) and columns (detections) into matches and leftovers.

    All three are intp arrays: `matches` the (k, 2) (row, column) pairs in
    row order, the other two sorted 1-D arrays.
    """

    matches: np.ndarray
    unmatched_tracks: np.ndarray
    unmatched_detections: np.ndarray

    @classmethod
    def unmatched(cls, n: int, m: int) -> "Assignment":
        """No pair: every one of n rows and m columns left over."""
        return cls(np.zeros((0, 2), dtype=np.intp), np.arange(n), np.arange(m))


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Solve the minimum-cost assignment over a finite n x m cost matrix.

    Matched pairs achieve the minimum total cost over all maximal matchings;
    ties resolve to the lexicographically smallest match set.  Two match
    sets tie when their totals differ by rounding only: a cell of the final
    reduced matrix counts as tight when it is at most `1e-12 * max(1, c)`,
    c the largest absolute value among the costs and the padding cost (the
    largest cost plus 1), since rounding in the potential updates can leave
    an exactly tight cell a few ulps above zero.

    The cost is O(n * m) per call for the warm start and the tight matrix,
    plus one shortest augmenting path, of at most max(n, m) column scans,
    for each row whose cheapest column a lower row already took, and the
    tie-break's searches.  Raises ValueError on non-finite entries.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got ndim={cost.ndim}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment.unmatched(n, m)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")

    flip = n > m
    solved = cost.T if flip else cost
    u, v, col_of_row, row_of_col = _shortest_paths(solved)
    # the padding cost, the largest cost plus 1, and the smallest cost bound every |cost|
    scale = max(1.0, abs(float(cost.max()) + 1.0), abs(float(cost.min())))
    tol = _TIE_TOLERANCE * scale
    tight_real = solved - u[:, None] - v <= tol
    # Padding cells cost the same everywhere, so they are tight where v is
    # largest; free columns keep v = 0, and no v rises above 0.
    tight_pad = v >= -tol

    k = max(n, m)
    tight = np.empty((k, k), dtype=bool)
    if flip:
        tight[:, :m] = tight_real.T
        tight[:, m:] = tight_pad[:, None]
        # unmatched tracks take the padding columns in row order
        col_of_track = row_of_col.copy()
        col_of_track[row_of_col < 0] = np.arange(m, n)
    else:
        tight[:n] = tight_real
        tight[n:] = tight_pad
        col_of_track = np.concatenate([col_of_row, (row_of_col < 0).nonzero()[0]])
    col_of_track = _lex_refine(tight, col_of_track, n)

    real = col_of_track[:n] < m
    rows = np.flatnonzero(real)
    return Assignment(
        matches=np.stack([rows, col_of_track[rows]], axis=1),
        unmatched_tracks=np.flatnonzero(~real),
        unmatched_detections=np.sort(col_of_track[n:]),
    )


def _shortest_paths(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost matching of every row of an r x c matrix, r <= c.

    Returns (u, v, column of each row, row of each column or -1).  The
    potentials leave `cost - u[:, None] - v` non-negative (up to rounding)
    and zero on every matched cell, and v <= 0 with v = 0 on every free
    column.  Padding the matrix with rows of one constant cost p, whose
    potential is p, therefore gives a feasible dual of the square problem
    that is tight on an optimal perfect matching: by complementary
    slackness the perfect matchings of its tight cells are exactly the
    optimal assignments, among which `_lex_refine` chooses.

    Warm start: u = row minima, v = 0, and each row takes the first column
    holding its minimum unless a lower row took it.  Each row still free
    then grows one Dijkstra tree of reduced costs until it reaches a free
    column (ties prefer a free column, then the lowest index), moves the
    potentials of the tree, and augments.  Every step closes one column, so
    a path takes at most c steps.
    """
    r, c = cost.shape
    u = cost.min(axis=1)
    v = np.zeros(c)
    col_of_row = cost.argmin(axis=1)
    row_of_col = np.full(c, -1)
    rows = np.arange(r)
    row_of_col[col_of_row[::-1]] = rows[::-1]  # the last write wins: the lowest row
    conflicts = (row_of_col[col_of_row] != rows).nonzero()[0]
    col_of_row[conflicts] = -1

    for start in conflicts.tolist():
        dist = np.full(c, np.inf)
        pred = np.empty(c, dtype=int)
        open_cols = np.ones(c, dtype=bool)
        closed = []
        i, reach = start, 0.0
        while True:
            step = cost[i] - v + (reach - u[i])
            better = open_cols & (step < dist)
            dist[better] = step[better]
            pred[better] = i
            near = np.where(open_cols, dist, np.inf)
            reach = float(near.min())
            ties = near == reach
            free_ties = ties & (row_of_col < 0)
            j = int(free_ties.argmax() if free_ties.any() else ties.argmax())
            if row_of_col[j] < 0:
                break
            open_cols[j] = False
            closed.append(j)
            i = int(row_of_col[j])

        cols = np.array(closed, dtype=int)
        shift = reach - dist[cols]
        u[start] += reach
        u[row_of_col[cols]] += shift
        v[cols] -= shift
        while True:
            i = int(pred[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return u, v, col_of_row, row_of_col


def _lex_refine(zero: np.ndarray, col_of_row: np.ndarray, n: int) -> np.ndarray:
    """Rewire a perfect zero-matching so real rows, in ascending order, hold the
    smallest column they can keep in some perfect zero-matching.

    With the rows before i fixed, row i can only move to a zero column left
    of its own c0 that a later row holds.  It may take such a column j
    exactly when an alternating path leads from j's holder back to c0 over
    the later rows (Berge).  One backward search from c0 finds every such j;
    `toward[x]` is the reached column that x's holder moves to when x is
    taken.
    """
    k = zero.shape[0]
    col_of_row = col_of_row.copy()
    index = np.arange(k)
    row_of_col = np.empty(k, dtype=int)
    row_of_col[col_of_row] = index
    toward = np.empty(k, dtype=int)

    i = 0
    while True:
        late = zero[i:n] & (index < col_of_row[i:n, None]) & (row_of_col > index[i:n, None])
        moves = late.any(axis=1)
        if not moves.any():
            return col_of_row
        i += int(moves.argmax())
        c0 = int(col_of_row[i])
        open_cols = row_of_col >= i
        candidates = np.flatnonzero(zero[i] & open_cols)
        reached = index == c0
        frontier = np.array([c0])
        while frontier.size and not reached[candidates[0]]:
            rest = np.flatnonzero(open_cols & ~reached)
            hits = zero[row_of_col[rest][:, None], frontier]
            got = hits.any(axis=1)
            toward[rest[got]] = frontier[hits[got].argmax(axis=1)]
            frontier = rest[got]
            reached[frontier] = True
        row, x = i, int(candidates[reached[candidates]][0])
        while x != c0:
            holder = int(row_of_col[x])
            col_of_row[row], row_of_col[x] = x, row
            row, x = holder, int(toward[x])
        col_of_row[row] = c0
        row_of_col[c0] = row
        i += 1
