"""Minimum-cost bipartite assignment (Hungarian method).

Rectangular matrices are padded to square with a large sentinel cost and
sentinel matches are stripped afterwards, so the real side of the smaller
dimension is always fully matched.  Among equal-cost optima the result is
the lexicographically smallest match set by (row, column).  The padding
columns are the indices >= m, so each row prefers its real columns over
padding (being unmatched) simply by taking columns in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MAX_MUNKRES_ITER = 1_000_000


@dataclass(frozen=True)
class Assignment:
    """Partition of rows (tracks) and columns (detections) into matches and leftovers."""

    matches: list[tuple[int, int]]
    unmatched_tracks: list[int] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Solve the minimum-cost assignment over a finite n x m cost matrix.

    Matched pairs achieve the minimum total cost over all maximal matchings;
    ties resolve to the lexicographically smallest match set.  Raises
    ValueError on non-finite entries.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got ndim={cost.ndim}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment([], list(range(n)), list(range(m)))
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")

    k = max(n, m)
    sentinel = float(cost.max()) + 1.0
    padded = np.full((k, k), sentinel)
    padded[:n, :m] = cost

    col_of_row, reduced = _munkres(padded)
    col_of_row = _lex_refine(reduced == 0.0, col_of_row, n)

    matches = [(i, int(col_of_row[i])) for i in range(n) if col_of_row[i] < m]
    matched_rows = {i for i, _ in matches}
    matched_cols = {j for _, j in matches}
    return Assignment(
        matches=matches,
        unmatched_tracks=[i for i in range(n) if i not in matched_rows],
        unmatched_detections=[j for j in range(m) if j not in matched_cols],
    )


def _munkres(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical O(k^3) Munkres on a square matrix.

    Returns (column of each row, final reduced matrix).  The reduced matrix
    is the cost minus row and column potentials, non-negative and zero on
    every matched cell, so by complementary slackness the perfect matchings
    of its zero cells are exactly the optimal assignments.  The tie-break
    refinement chooses among those.  A zero cell need not lie in any of them,
    and float rounding can leave a tight cell a few ulps above zero, which
    hides the ties through it.
    """
    Z = costs.astype(float, copy=True)
    k = Z.shape[0]
    Z -= Z.min(axis=1, keepdims=True)
    Z -= Z.min(axis=0, keepdims=True)

    starred = np.zeros((k, k), dtype=bool)
    primed = np.zeros((k, k), dtype=bool)
    row_cov = np.zeros(k, dtype=bool)
    col_cov = np.zeros(k, dtype=bool)

    # Seed: star independent zeros greedily, row-major.
    for i, j in zip(*np.nonzero(Z == 0.0)):
        if not row_cov[i] and not col_cov[j]:
            starred[i, j] = True
            row_cov[i] = True
            col_cov[j] = True
    row_cov[:] = False
    col_cov[:] = False

    for _ in range(_MAX_MUNKRES_ITER):
        col_cov = starred.any(axis=0)
        if int(col_cov.sum()) == k:
            col_of_row = np.argmax(starred, axis=1)
            return col_of_row, Z

        while True:
            free = (Z == 0.0) & ~row_cov[:, None] & ~col_cov[None, :]
            if not free.any():
                uncovered = ~row_cov[:, None] & ~col_cov[None, :]
                h = Z[uncovered].min()
                Z[row_cov, :] += h
                Z[:, ~col_cov] -= h
                continue
            i, j = np.argwhere(free)[0]
            primed[i, j] = True
            star_cols = np.nonzero(starred[i])[0]
            if star_cols.size:
                row_cov[i] = True
                col_cov[star_cols[0]] = False
                continue
            # Augment: alternate primed/starred from (i, j); primes become
            # stars, stars along the path are erased.
            path = [(i, j)]
            while True:
                rows = np.nonzero(starred[:, path[-1][1]])[0]
                if rows.size == 0:
                    break
                r = int(rows[0])
                path.append((r, path[-1][1]))
                c = int(np.nonzero(primed[r])[0][0])
                path.append((r, c))
            for idx, (pr, pc) in enumerate(path):
                starred[pr, pc] = idx % 2 == 0
            primed[:] = False
            row_cov[:] = False
            break
    raise RuntimeError("assignment did not converge")  # unreachable on finite input


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
