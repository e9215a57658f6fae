"""Box metrics and projection tests.

Derived expectations come from independent oracles: pixel rasterization
for overlap areas, plain scalar math for the aspect term, and explicit
matrix products for the camera composition.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from crowdrisk.geometry import (
    BBox,
    CameraModel,
    HomographyEstimationError,
    HorizonPointError,
    SingularTiltError,
    build_projection,
    ciou_loss,
    estimate_homography,
    foot_point,
    intrinsic_matrix,
    iou,
    iou_matrix,
    project_to_bev,
    rotation_matrix,
    translation_matrix,
)


def _raster_iou(a: BBox, b: BBox, span: int = 64) -> float:
    """Overlap ratio by counting unit pixels whose center lies in each box."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    in_a = in_b = in_both = 0
    for gx in range(-span, span):
        for gy in range(-span, span):
            x, y = gx + 0.5, gy + 0.5
            pa = ax1 < x < ax2 and ay1 < y < ay2
            pb = bx1 < x < bx2 and by1 < y < by2
            in_a += pa
            in_b += pb
            in_both += pa and pb
    union = in_a + in_b - in_both
    return in_both / union if union else 0.0


class TestIoU:
    def test_identical_boxes(self):
        a = BBox(10, 10, 4, 8)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0

    def test_one_third_overlap(self):
        a, b = BBox(1, 1, 2, 2), BBox(2, 1, 2, 2)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert iou(a, b) == pytest.approx(_raster_iou(a, b), abs=1e-12)

    def test_matches_rasterization_on_integer_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            cx, cy = rng.integers(-10, 10, size=2)
            w, h = rng.integers(1, 8, size=2) * 2  # even sides: integer corners
            cx2, cy2 = rng.integers(-10, 10, size=2)
            w2, h2 = rng.integers(1, 8, size=2) * 2
            a = BBox(float(cx), float(cy), float(w), float(h))
            b = BBox(float(cx2), float(cy2), float(w2), float(h2))
            assert iou(a, b) == pytest.approx(_raster_iou(a, b), abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.1, 40, 2))
            b = BBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.1, 40, 2))
            val = iou(a, b)
            assert val == iou(b, a)
            assert 0.0 <= val <= 1.0

    def test_unity_iff_identical(self):
        a = BBox(3, 4, 5, 6)
        assert iou(a, BBox(3, 4, 5, 6)) == 1.0
        assert iou(a, BBox(3, 4, 5, 6.001)) < 1.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -1, 2)
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 2, conf=1.5)


class TestCIoU:
    def test_identity(self):
        out = ciou_loss(BBox(5, 5, 2, 2), BBox(5, 5, 2, 2))
        assert out.loss == 0.0
        assert out.iou == 1.0
        assert out.v == 0.0

    def test_concentric_equal_aspect(self):
        out = ciou_loss(BBox(0, 0, 2, 2), BBox(0, 0, 4, 4))
        assert out.iou == pytest.approx(0.25, abs=1e-12)
        assert out.rho2 == 0.0
        # equal aspect: arctan(1) - arctan(1) drives the aspect term to zero
        assert out.v == pytest.approx((4 / math.pi**2) * (math.atan(1) - math.atan(1)) ** 2)
        assert out.loss == pytest.approx(0.75, abs=1e-12)

    def test_aspect_term(self):
        out = ciou_loss(BBox(0, 0, 2, 4), BBox(0, 0, 4, 2))
        expected_v = (4 / math.pi**2) * (math.atan(2) - math.atan(0.5)) ** 2
        assert out.v == pytest.approx(expected_v, abs=1e-12)

    def test_loss_dominates_iou_complement(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            pred = BBox(*rng.uniform(-20, 20, 2), *rng.uniform(0.1, 30, 2))
            gt = BBox(*rng.uniform(-20, 20, 2), *rng.uniform(0.1, 30, 2))
            out = ciou_loss(pred, gt)
            assert out.loss >= 1.0 - out.iou - 1e-12
            assert out.rho2 >= 0.0
            assert out.c2 > 0.0
            assert out.v >= 0.0

    def test_equality_iff_centered_same_aspect(self):
        out = ciou_loss(BBox(1, 2, 3, 6), BBox(1, 2, 5, 10))
        assert out.loss == pytest.approx(1.0 - out.iou, abs=1e-12)


class TestFootPoint:
    @pytest.mark.parametrize(
        "box,expected",
        [
            ((10, 10, 4, 8), (10, 14)),
            ((0, 0, 2, 2), (0, 1)),
            ((100.5, 200.25, 50, 99.5), (100.5, 250.0)),
        ],
    )
    def test_bottom_edge_midpoint(self, box, expected):
        assert tuple(foot_point(np.array([box]))[0]) == expected


class TestBoxArrayShapes:
    @pytest.mark.parametrize("rows,cols,bad", [
        ((4, 5), (1, 4), (4, 5)),  # 20 numbers once read as five scrambled boxes
        ((1, 4), (2, 3), (2, 3)),
        ((4,), (1, 4), (4,)),
    ])
    def test_iou_matrix_rejects_wrong_width(self, rows, cols, bad):
        with pytest.raises(ValueError, match=re.escape(f"(n, 4) array, got shape {bad}")):
            iou_matrix(np.ones(rows), np.ones(cols))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4,)])
    def test_foot_point_rejects_wrong_width(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(n, 4) array, got shape {shape}")):
            foot_point(np.ones(shape))

    def test_empty_box_arrays(self):
        assert iou_matrix(np.zeros((0, 4)), np.ones((3, 4))).shape == (0, 3)
        assert foot_point(np.zeros((0, 4))).shape == (0, 2)


class TestBuildProjection:
    def test_matches_explicit_matrix_product(self):
        cam = CameraModel(f=1, ku=1, kv=1, skew=0, cx=0, cy=0, theta=math.pi / 2, height=1)
        M = build_projection(cam)
        # independent composition of the same three matrices
        K = intrinsic_matrix(cam)
        R = rotation_matrix(math.pi / 2)
        T = translation_matrix(math.pi / 2, 1.0)
        expected = (K @ R @ T)[:, [0, 1, 3]]
        assert np.allclose(M, expected, atol=1e-15)
        assert cam.M is M

    def test_general_parameters_match_oracle(self):
        cam = CameraModel(f=800, ku=1.1, kv=0.9, skew=0.3, cx=320, cy=240,
                          theta=math.radians(35), height=4.2)
        M = build_projection(cam)
        K = np.array([[800 * 1.1, 0.3, 320, 0], [0, 800 * 0.9, 240, 0], [0, 0, 1, 0]])
        theta = math.radians(35)
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
        T = np.eye(4)
        T[2, 3] = -4.2 / s
        expected = (K @ R @ T)[:, [0, 1, 3]]
        assert np.allclose(M, expected, rtol=1e-12)

    def test_zero_tilt_is_singular(self):
        cam = CameraModel(theta=0.0, height=1.0)
        with pytest.raises(SingularTiltError):
            build_projection(cam)

    def test_supplied_matrix_identity(self):
        cam = CameraModel.from_matrix(np.eye(3))
        p = project_to_bev(cam.M, [(7.0, 3.0)])
        assert p.tolist() == [[7.0, 3.0]]

    def test_nonpositive_height_rejected(self):
        cam = CameraModel(theta=math.pi / 4, height=0.0)
        with pytest.raises(ValueError):
            build_projection(cam)


class TestProjectToBEV:
    def test_identity(self):
        p = project_to_bev(np.eye(3), [(7, 3)])
        assert p.tolist() == [[7.0, 3.0]]

    def test_diagonal_scale(self):
        p = project_to_bev(np.diag([2.0, 2.0, 1.0]), [(7, 3)])
        assert p.tolist() == [[14.0, 6.0]]

    def test_round_trip_random_matrices(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 200:
            M = rng.uniform(-2, 2, size=(3, 3))
            if abs(np.linalg.det(M)) < 1e-3:
                continue
            x, y = rng.uniform(-5, 5, size=2)
            try:
                fwd = project_to_bev(M, [(x, y)])
                (back_x, back_y), = project_to_bev(np.linalg.inv(M), fwd)
            except HorizonPointError:
                continue
            assert math.hypot(back_x - x, back_y - y) < 1e-9
            done += 1

    def test_scalar_form_matches_matrix_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            M = rng.uniform(-2, 2, size=(3, 3))
            M[2, 2] += 3.0  # keep the test points off the horizon
            x, y = rng.uniform(-1, 1, size=2)
            (px, py), = project_to_bev(M, [(x, y)])
            hom = M @ np.array([x, y, 1.0])
            assert abs(px - hom[0] / hom[2]) < 1e-12
            assert abs(py - hom[1] / hom[2]) < 1e-12
            batch = project_to_bev(M, np.array([[x, y], [y, x]]))
            assert abs(batch[0, 0] - px) < 1e-12
            assert abs(batch[0, 1] - py) < 1e-12

    def test_horizon_point_raises(self):
        M = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, -10.0]])
        with pytest.raises(HorizonPointError):
            project_to_bev(M, [(0.0, 10.0)])


class TestEstimateHomography:
    UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_identity_from_square(self):
        pairs = [(p, p) for p in self.UNIT_SQUARE]
        M = estimate_homography(pairs)
        assert np.allclose(M, np.eye(3), atol=1e-10)

    def test_uniform_scale(self):
        pairs = [(p, (2 * p[0], 2 * p[1])) for p in self.UNIT_SQUARE]
        M = estimate_homography(pairs)
        assert np.allclose(M, np.diag([2.0, 2.0, 1.0]), atol=1e-10)

    def test_recovers_known_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            M_true = rng.uniform(-1, 1, size=(3, 3))
            M_true[2, 2] = 1.0
            if abs(np.linalg.det(M_true)) < 1e-2:
                continue
            pts = rng.uniform(-3, 3, size=(6, 2))
            pairs = []
            for x, y in pts:
                hom = M_true @ np.array([x, y, 1.0])
                pairs.append(((x, y), (hom[0] / hom[2], hom[1] / hom[2])))
            M_est = estimate_homography(pairs)
            assert np.abs(M_est - M_true).max() < 1e-8

    def test_ground_point_destinations_accepted(self):
        # ground points as rows of an (n, 2) array, as project_to_bev returns them
        pairs = list(zip(self.UNIT_SQUARE, np.array(self.UNIT_SQUARE)))
        assert np.allclose(estimate_homography(pairs), np.eye(3), atol=1e-10)

    def test_too_few_points(self):
        with pytest.raises(HomographyEstimationError):
            estimate_homography([((0, 0), (0, 0))] * 3)

    def test_collinear_points_degenerate(self):
        pairs = [((float(i), 0.0), (float(i), 0.0)) for i in range(5)]
        with pytest.raises(HomographyEstimationError):
            estimate_homography(pairs)
