"""Distance rules: violation pairs, couple counters, zone labels.

The rules name people by their row in `FramePositions`; the oracles here
iterate (id, point) pairs and compare id-pair sets built from those rows.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from crowdrisk.distancing import (
    CoupleRegistry,
    DistancePolicy,
    FramePositions,
    ZoneLabel,
    classify_zones,
    exclusive_couples,
    frame_stats,
    pairwise_violations,
    update_couples,
)

# Oxford-town-centre style calibration: 10 BEV px per 0.98 m, r = 20 px.
OTC = DistancePolicy(xi=10.0 / 0.98, r=20.0, couple_d=1.0, couple_eps=5.0, fps=25.0)
NO_PAIRS = np.zeros((0, 2), dtype=np.int64)


def frame(entries: list[tuple[int, tuple[float, float]]], idx: int = 1) -> FramePositions:
    xy = np.array([p for _, p in entries], dtype=float).reshape(len(entries), 2)
    return FramePositions(idx, [i for i, _ in entries], xy)


def id_pairs(pos: FramePositions, rows: np.ndarray) -> set[tuple[int, int]]:
    """The (k, 2) row pairs of `pos` as a set of (id_a < id_b) pairs."""
    assert rows.shape == (len(rows), 2) and (rows[:, 0] < rows[:, 1]).all()
    return {tuple(sorted((pos.ids[a], pos.ids[b]))) for a, b in rows.tolist()}


def violations_of(pos: FramePositions, policy: DistancePolicy = OTC) -> set[tuple[int, int]]:
    return id_pairs(pos, pairwise_violations(pos, policy))


def naive_violations(pos: FramePositions, r: float) -> set[tuple[int, int]]:
    """Independent O(n^2) pass over all pairs."""
    out = set()
    for (ia, pa), (ib, pb) in itertools.combinations(zip(pos.ids, pos.xy.tolist()), 2):
        if math.sqrt((pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2) <= r:
            out.add((min(ia, ib), max(ia, ib)))
    return out


def violation(p, q, r: float) -> int:
    """The rule for one pair of points: pairwise_violations on a two-person frame."""
    return len(pairwise_violations(frame([(1, p), (2, q)]), DistancePolicy(xi=1.0, r=r)))


class TestViolation:
    def test_coincident_points(self):
        p = (3, 4)
        assert violation(p, p, 5) == 1

    def test_within_otc_threshold(self):
        assert violation((0, 0), (0, 19), 20) == 1

    def test_boundary_distance_counts(self):
        assert violation((0, 0), (0, 20), 20) == 1
        assert violation((0, 0), (0, 20.000001), 20) == 0

    def test_symmetry_and_reflexivity(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p = tuple(rng.uniform(-100, 100, 2))
            q = tuple(rng.uniform(-100, 100, 2))
            r = float(rng.uniform(0.1, 50))
            assert violation(p, q, r) == violation(q, p, r)
            assert violation(p, p, r) == 1

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            p = tuple(rng.uniform(-50, 50, 2))
            q = tuple(rng.uniform(-50, 50, 2))
            r1 = float(rng.uniform(0.1, 40))
            r2 = r1 + float(rng.uniform(0, 40))
            if violation(p, q, r1):
                assert violation(p, q, r2) == 1


class TestPairwiseViolations:
    def test_single_person(self):
        assert pairwise_violations(frame([(1, (0, 0))]), OTC).shape == (0, 2)
        assert pairwise_violations(frame([]), OTC).shape == (0, 2)

    def test_collinear_chain(self):
        pos = frame([(1, (0, 0)), (2, (0, 15)), (3, (0, 30))])
        assert pairwise_violations(pos, OTC).tolist() == [[0, 1], [1, 2]]

    def test_rows_not_ids(self):
        pos = frame([(9, (0, 0)), (4, (50, 0)), (7, (0, 15))])
        assert pairwise_violations(pos, OTC).tolist() == [[0, 2]]
        assert violations_of(pos) == {(7, 9)}

    def test_otc_ten_pixels_is_violation(self):
        # 98 cm apart -> 10 BEV px, under the 20 px threshold
        pos = frame([(1, (0, 0)), (2, (0, 0.98 * OTC.xi))])
        assert violations_of(pos) == {(1, 2)}

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(0, 30))
            ids = rng.choice(1000, size=n, replace=False)
            pos = frame([(int(i), tuple(rng.uniform(0, 200, 2))) for i in ids])
            assert violations_of(pos) == naive_violations(pos, OTC.r)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 2)])
    def test_positions_reject_wrong_width(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(n, 2) array, got shape {shape}")):
            FramePositions(1, [1, 2], np.ones(shape))


class TestCoupleRule:
    def advance(self, registry, n_frames, separation_m, policy=OTC, start=1):
        for k in range(n_frames):
            pos = frame(
                [(1, (0.0, 0.0)), (2, (separation_m * policy.xi, 0.0))], idx=start + k
            )
            update_couples(registry, pos, policy)
        return registry

    def test_sustained_half_meter_becomes_couple(self):
        registry = self.advance(CoupleRegistry(), 150, 0.5)
        assert registry.is_couple(1, 2, OTC)  # 150 > 125 qualifying frames

    def test_four_seconds_is_not_enough(self):
        registry = self.advance(CoupleRegistry(), 100, 0.5)
        assert not registry.is_couple(1, 2, OTC)  # 100 <= 125

    def test_distant_pair_never_couples(self):
        registry = self.advance(CoupleRegistry(), 500, 1.5)
        assert not registry.is_couple(1, 2, OTC)
        assert registry.counter(1, 2) == 0

    def test_separation_resets_counter(self):
        registry = self.advance(CoupleRegistry(), 100, 0.5)
        assert registry.counter(1, 2) == 100
        self.advance(registry, 1, 5.0, start=101)  # one frame apart
        assert registry.counter(1, 2) == 0
        self.advance(registry, 100, 0.5, start=102)
        assert not registry.is_couple(1, 2, OTC)

    def test_absence_resets_counter(self):
        registry = self.advance(CoupleRegistry(), 100, 0.5)
        update_couples(registry, frame([(1, (0, 0))], idx=101), OTC)
        assert registry.counter(1, 2) == 0

    def test_counter_increments_by_one_per_frame(self):
        registry = CoupleRegistry()
        for k in range(1, 40):
            self.advance(registry, 1, 0.5, start=k)
            assert registry.counter(1, 2) == k

    def test_flag_persists_while_proximity_persists(self):
        registry = self.advance(CoupleRegistry(), 126, 0.5)
        assert registry.is_couple(1, 2, OTC)
        self.advance(registry, 50, 0.5, start=127)
        assert registry.is_couple(1, 2, OTC)
        self.advance(registry, 1, 5.0, start=177)
        assert not registry.is_couple(1, 2, OTC)


def make_couple(id_a: int = 1, id_b: int = 2) -> CoupleRegistry:
    registry = CoupleRegistry()
    registry._counters[(min(id_a, id_b), max(id_a, id_b))] = 10_000
    return registry


class TestClassifyZones:
    def test_lone_person_is_green(self):
        labels = classify_zones(frame([(1, (0, 0))]), NO_PAIRS, CoupleRegistry(), OTC)
        assert labels == {1: ZoneLabel.SAFE}

    def test_distant_neighbors_green(self):
        pos = frame([(1, (0, 0)), (2, (5 * OTC.xi, 0))])
        labels = classify_zones(pos, pairwise_violations(pos, OTC), CoupleRegistry(), OTC)
        assert set(labels.values()) == {ZoneLabel.SAFE}

    def test_violating_pair_is_red(self):
        pos = frame([(1, (0, 0)), (2, (10, 0))])
        labels = classify_zones(pos, pairwise_violations(pos, OTC), CoupleRegistry(), OTC)
        assert set(labels.values()) == {ZoneLabel.HIGH_RISK}

    def test_isolated_couple_is_yellow(self):
        pos = frame([(1, (0, 0)), (2, (0.6 * OTC.xi, 0)), (3, (10 * OTC.xi, 0))])
        labels = classify_zones(pos, pairwise_violations(pos, OTC), make_couple(), OTC)
        assert labels[1] is ZoneLabel.POTENTIALLY_RISKY
        assert labels[2] is ZoneLabel.POTENTIALLY_RISKY
        assert labels[3] is ZoneLabel.SAFE

    def test_stranger_near_couple_turns_all_red(self):
        pos = frame([(1, (0, 0)), (2, (0.6 * OTC.xi, 0)), (3, (-1.0 * OTC.xi, 0))])
        labels = classify_zones(pos, pairwise_violations(pos, OTC), make_couple(), OTC)
        assert set(labels.values()) == {ZoneLabel.HIGH_RISK}

    def test_couple_midpoint_circle_catches_near_stranger(self):
        # stranger beyond r of both members but inside the r + d_c/2 circle
        policy = DistancePolicy(xi=10.0, r=20.0)
        d_c = 1.8 * policy.xi  # partners 18 px apart, midpoint at (9, 0)
        pos = frame([(1, (0, 0)), (2, (d_c, 0)), (3, (9.0, 27.0))])
        # pairwise: dist(1,3)=sqrt(81+729)=28.5 > r, dist(2,3) same by symmetry
        assert violations_of(pos, policy) == {(1, 2)}
        labels = classify_zones(pos, pairwise_violations(pos, policy), make_couple(), policy)
        assert set(labels.values()) == {ZoneLabel.HIGH_RISK}  # 27 <= 20 + 9

    def test_two_couples_breaching_all_red(self):
        # stacked couples: no member pair is within r (21 > 20), but the
        # midpoint circles overlap (21 <= 20 + 4 + 4)
        policy = DistancePolicy(xi=10.0, r=20.0)
        registry = make_couple(1, 2)
        registry._counters[(3, 4)] = 10_000
        pos = frame([(1, (0, 0)), (2, (8, 0)), (3, (0, 21)), (4, (8, 21))])
        assert violations_of(pos, policy) == {(1, 2), (3, 4)}
        labels = classify_zones(pos, pairwise_violations(pos, policy), registry, policy)
        assert set(labels.values()) == {ZoneLabel.HIGH_RISK}

    def test_two_distant_couples_both_yellow(self):
        policy = DistancePolicy(xi=10.0, r=20.0)
        registry = make_couple(1, 2)
        registry._counters[(3, 4)] = 10_000
        pos = frame([(1, (0, 0)), (2, (8, 0)), (3, (300, 0)), (4, (308, 0))])
        labels = classify_zones(pos, pairwise_violations(pos, policy), registry, policy)
        assert set(labels.values()) == {ZoneLabel.POTENTIALLY_RISKY}

    def test_partner_exempt_from_mutual_violation(self):
        pos = frame([(1, (0, 0)), (2, (5, 0))])
        assert violations_of(pos) == {(1, 2)}
        labels = classify_zones(pos, pairwise_violations(pos, OTC), make_couple(), OTC)
        assert set(labels.values()) == {ZoneLabel.POTENTIALLY_RISKY}

    def test_couples_disabled_is_plain_violation(self):
        pos = frame([(1, (0, 0)), (2, (5, 0))])
        labels = classify_zones(pos, pairwise_violations(pos, OTC), CoupleRegistry(), OTC)
        assert set(labels.values()) == {ZoneLabel.HIGH_RISK}

    def test_unknown_id_in_violations_raises(self):
        # a violation row outside 0..n-1 names nobody in the frame
        for rows in ([[0, 1]], [[-1, 0]]):
            with pytest.raises(ValueError, match="outside 0..0"):
                classify_zones(frame([(1, (0, 0))]), np.array(rows), CoupleRegistry(), OTC)

    def test_third_wheel_forms_no_triple(self):
        policy = DistancePolicy(xi=10.0, r=20.0)
        registry = make_couple(1, 2)
        registry._counters[(2, 3)] = 10_000  # also flagged, but 1-2 is closer
        pos = frame([(1, (0, 0)), (2, (6, 0)), (3, (14, 0))])
        partner = exclusive_couples(registry, pos, policy)
        assert partner.tolist() == [1, 0, -1]
        labels = classify_zones(pos, pairwise_violations(pos, policy), registry, policy)
        # person 3 violates with both members as a non-partner: everyone red
        assert set(labels.values()) == {ZoneLabel.HIGH_RISK}

    def test_red_absorbs_over_yellow(self):
        rng = np.random.default_rng(20)
        policy = DistancePolicy(xi=10.0, r=20.0)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            pos = frame([(i, tuple(rng.uniform(0, 150, 2))) for i in range(n)])
            registry = CoupleRegistry()
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < 0.08:
                    registry._counters[(a, b)] = 10_000
            violations = pairwise_violations(pos, policy)
            labels = classify_zones(pos, violations, registry, policy)
            partner = exclusive_couples(registry, pos, policy)
            for a, b in violations.tolist():
                if partner[a] != b:
                    assert labels[pos.ids[a]] is ZoneLabel.HIGH_RISK
                    assert labels[pos.ids[b]] is ZoneLabel.HIGH_RISK
            assert set(labels) == set(pos.ids)


class TestFrameStats:
    def test_empty(self):
        stats = frame_stats({})
        assert (stats.total, stats.red, stats.yellow_pairs, stats.green) == (0, 0, 0, 0)

    def test_partition_arithmetic(self):
        labels = {}
        for i in range(2):
            labels[i] = ZoneLabel.POTENTIALLY_RISKY
        for i in range(2, 5):
            labels[i] = ZoneLabel.HIGH_RISK
        for i in range(5, 10):
            labels[i] = ZoneLabel.SAFE
        stats = frame_stats(labels)
        assert stats.total == 10
        assert stats.total == stats.red + 2 * stats.yellow_pairs + stats.green

    def test_random_frames_match_bruteforce(self):
        rng = np.random.default_rng(14)
        policy = DistancePolicy(xi=10.0, r=20.0)
        for _ in range(50):
            n = 30
            pos = frame([(i, tuple(rng.uniform(0, 300, 2))) for i in range(n)])
            labels = classify_zones(pos, pairwise_violations(pos, policy),
                                    CoupleRegistry(), policy)
            stats = frame_stats(labels)
            naive = naive_violations(pos, policy.r)
            flagged = {i for pair in naive for i in pair}
            assert stats.red == len(flagged)
            assert stats.green == n - len(flagged)
            assert stats.total == stats.red + 2 * stats.yellow_pairs + stats.green
