"""Assignment solver tests against exhaustive permutation search."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from crowdrisk.assignment import solve_assignment
from crowdrisk.geometry import iou_matrix


def brute_force(cost: np.ndarray) -> tuple[float, list[list[int]]]:
    """Exhaustive minimum over all maximal matchings; among optima, the
    lexicographically smallest match set, as [row, column] pairs."""
    n, m = cost.shape
    best_total = math.inf
    best_sets: list[list[tuple[int, int]]] = []
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = math.fsum(cost[i, cols[i]] for i in range(n))
            pairs = sorted(zip(range(n), cols))
            if total < best_total - 1e-12:
                best_total, best_sets = total, [pairs]
            elif abs(total - best_total) <= 1e-12:
                best_sets.append(pairs)
    else:
        for rows in itertools.permutations(range(n), m):
            total = math.fsum(cost[rows[j], j] for j in range(m))
            pairs = sorted(zip(rows, range(m)))
            if total < best_total - 1e-12:
                best_total, best_sets = total, [pairs]
            elif abs(total - best_total) <= 1e-12:
                best_sets.append(pairs)
    return best_total, [list(pair) for pair in min(best_sets)]


def assert_same(out, expected) -> None:
    """Equal fields: the same intp arrays, shapes and values."""
    for name in ("matches", "unmatched_tracks", "unmatched_detections"):
        got, want = getattr(out, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.intp
        assert got.shape == want.shape and np.array_equal(got, want)


def assert_index_arrays(out, k: int, a: int, b: int) -> None:
    """intp fields of shapes (k, 2), (a,) and (b,)."""
    assert out.matches.dtype == out.unmatched_tracks.dtype == np.intp
    assert out.unmatched_detections.dtype == np.intp
    assert out.matches.shape == (k, 2)
    assert out.unmatched_tracks.shape == (a,)
    assert out.unmatched_detections.shape == (b,)


class TestExamples:
    def test_single_cell(self):
        out = solve_assignment(np.array([[7.0]]))
        assert out.matches.tolist() == [[0, 0]]
        assert out.unmatched_tracks.tolist() == []
        assert out.unmatched_detections.tolist() == []

    def test_two_by_two_diagonal(self):
        out = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert out.matches.tolist() == [[0, 0], [1, 1]]

    def test_two_by_two_antidiagonal(self):
        out = solve_assignment(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert out.matches.tolist() == [[0, 1], [1, 0]]

    def test_empty_inputs(self):
        out = solve_assignment(np.zeros((0, 3)))
        assert out.matches.tolist() == []
        assert out.unmatched_detections.tolist() == [0, 1, 2]
        out = solve_assignment(np.zeros((2, 0)))
        assert out.unmatched_tracks.tolist() == [0, 1]

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (2, 0), (2, 3), (3, 2)])
    def test_fields_are_index_arrays(self, n, m):
        k = min(n, m)
        assert_index_arrays(solve_assignment(np.ones((n, m))), k, n - k, m - k)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            solve_assignment(np.array([[np.inf]]))


class TestAgainstBruteForce:
    def test_random_square_and_rectangular(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            cost = rng.uniform(-10, 10, size=(n, m))
            out = solve_assignment(cost)
            total = math.fsum(cost[i, j] for i, j in out.matches)
            expected_total, expected_set = brute_force(cost)
            assert total == pytest.approx(expected_total, abs=1e-9)
            assert sorted(out.matches.tolist()) == expected_set

    def test_tie_heavy_integer_costs(self):
        """Small integer costs force many optimal solutions; the solver must
        pick the lexicographically smallest match set every time."""
        rng = np.random.default_rng(99)
        for _ in range(400):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            cost = rng.integers(0, 3, size=(n, m)).astype(float)
            out = solve_assignment(cost)
            expected_total, expected_set = brute_force(cost)
            total = math.fsum(cost[i, j] for i, j in out.matches)
            assert total == expected_total
            assert sorted(out.matches.tolist()) == expected_set

    def test_partition_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(0, 7))
            m = int(rng.integers(0, 7))
            assert_partition(solve_assignment(rng.random((n, m))), n, m)

    def test_all_equal_costs_prefers_lowest_indices(self):
        out = solve_assignment(np.ones((3, 3)))
        assert out.matches.tolist() == [[0, 0], [1, 1], [2, 2]]

    def test_determinism(self):
        rng = np.random.default_rng(1)
        cost = rng.random((6, 4))
        first = solve_assignment(cost)
        for _ in range(5):
            assert_same(solve_assignment(cost), first)


def lex_min_optimum(cost: np.ndarray, linear_sum_assignment) -> list[list[int]]:
    """The tie rule row by row: each row takes the first free real column, or
    else stays unmatched, from which a maximal matching of optimal total is
    still reachable.  Exact on integer costs, where every total is exact."""
    n, m = cost.shape
    size = min(n, m)

    def best(rows: list[int], cols: list[int]) -> float:
        if not rows or not cols:
            return 0.0
        sub = cost[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    optimum = best(list(range(n)), list(range(m)))
    matches: list[list[int]] = []
    spent = 0.0
    for i in range(n):
        free = [c for c in range(m) if c not in {j for _, j in matches}]
        rest = list(range(i + 1, n))
        for j in free + [None]:
            cols = [c for c in free if c != j]
            if len(matches) + (j is not None) + min(len(rest), len(cols)) != size:
                continue
            if spent + (0.0 if j is None else cost[i, j]) + best(rest, cols) == optimum:
                break
        else:
            raise AssertionError(f"row {i}: no choice reaches the optimum")
        if j is not None:
            matches.append([i, j])
            spent += cost[i, j]
    return matches


class TestTieRuleBeyondBruteForce:
    def test_integer_costs_with_equal_rows(self):
        """Up to 40x40, both orientations, costs in {0, 1, 2} with some rows
        all equal, so the tie-break rotates long chains."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, m = (int(v) for v in rng.integers(1, 41, size=2))
            cost = rng.integers(0, 3, size=(n, m)).astype(float)
            equal = rng.random(n) < 0.3
            cost[equal] = rng.integers(0, 3, size=(int(equal.sum()), 1))
            expected = lex_min_optimum(cost, optimize.linear_sum_assignment)
            assert solve_assignment(cost).matches.tolist() == expected

    @pytest.mark.parametrize("shape", [(40, 8), (8, 40), (30, 5), (5, 30)])
    def test_lopsided_with_equal_rows_and_columns(self, shape):
        """|n - m| >= 10: many rows or columns are left over, so the solver's
        free columns and padding carry the tie-break."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(sum(shape))
        n, m = shape
        for _ in range(5):
            cost = rng.integers(0, 3, size=(n, m)).astype(float)
            equal_rows = rng.random(n) < 0.3
            cost[equal_rows] = rng.integers(0, 3, size=(int(equal_rows.sum()), 1))
            equal_cols = rng.random(m) < 0.3
            cost[:, equal_cols] = rng.integers(0, 3, size=(1, int(equal_cols.sum())))
            expected = lex_min_optimum(cost, optimize.linear_sum_assignment)
            assert solve_assignment(cost).matches.tolist() == expected


def assert_partition(out, n: int, m: int) -> None:
    rows = sorted(out.matches[:, 0].tolist() + out.unmatched_tracks.tolist())
    cols = sorted(out.matches[:, 1].tolist() + out.unmatched_detections.tolist())
    assert rows == list(range(n))
    assert cols == list(range(m))
    assert len(out.matches) == min(n, m)


class TestLargeAgainstScipy:
    """Totals equal scipy's optimum on matrices far beyond brute force."""

    @pytest.mark.parametrize("shape", [(300, 250), (250, 300), (600, 600)])
    def test_random(self, shape):
        optimize = pytest.importorskip("scipy.optimize")
        cost = np.random.default_rng(sum(shape)).random(shape)
        self.check(cost, optimize.linear_sum_assignment)

    def test_crowded_frame(self):
        """1 - IoU of 1,000 boxes on a 1920x1080 frame against 980 jittered
        copies of some of them, in shuffled order."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(7)
        tracks = np.column_stack([rng.uniform(0, 1920, 1000), rng.uniform(0, 1080, 1000),
                                  rng.uniform(20, 40, 1000), rng.uniform(50, 90, 1000)])
        dets = tracks[rng.permutation(1000)[:980]] + rng.normal(0, [2.0, 2.0, 0.5, 0.5], (980, 4))
        self.check(1.0 - iou_matrix(tracks, dets), optimize.linear_sum_assignment)

    @staticmethod
    def check(cost, linear_sum_assignment):
        out = solve_assignment(cost)
        assert_partition(out, *cost.shape)
        rows, cols = linear_sum_assignment(cost)
        total = math.fsum(cost[i, j] for i, j in out.matches)
        assert total == pytest.approx(math.fsum(cost[rows, cols]), abs=1e-9)

    def test_all_equal_costs_give_identity(self):
        out = solve_assignment(np.ones((1000, 1000)))
        assert out.matches.tolist() == [[i, i] for i in range(1000)]
