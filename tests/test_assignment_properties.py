"""Property test: the solver equals exhaustive search on small tie-heavy matrices."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))

from test_assignment import brute_force  # noqa: E402

from crowdrisk.assignment import solve_assignment  # noqa: E402
from crowdrisk.geometry import iou_matrix  # noqa: E402

LEVELS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def tied_costs(draw) -> np.ndarray:
    """An n x m cost matrix, n and m in 1..6, that ties often: cells from a
    few levels, or 1 - IoU of boxes drawn from a pool of up to three."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        cells = draw(st.lists(st.sampled_from(LEVELS), min_size=n * m, max_size=n * m))
        return np.array(cells).reshape(n, m)
    coord, side = st.integers(0, 30), st.integers(5, 20)
    pool = np.array(draw(st.lists(st.tuples(coord, coord, side, side), min_size=1, max_size=3)),
                    dtype=float)
    pick = st.integers(0, len(pool) - 1)
    tracks = draw(st.lists(pick, min_size=n, max_size=n))
    dets = draw(st.lists(pick, min_size=m, max_size=m))
    return 1.0 - iou_matrix(pool[tracks], pool[dets])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tied_costs())
def test_equals_brute_force(cost):
    _, expected = brute_force(cost)
    assert solve_assignment(cost).matches.tolist() == expected
