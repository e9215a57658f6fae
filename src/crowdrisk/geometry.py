"""Bounding-box metrics and image-to-ground-plane projection.

Boxes are stored in center format (cx, cy, w, h); corner conversion is an
explicit helper, never implicit.  The ground-plane mapping is a 3x3
projective matrix M, either derived from camera intrinsics/extrinsics or
supplied directly (e.g. from point-correspondence calibration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Denominators and determinants below this magnitude are treated as singular.
SINGULARITY_TOL = 1e-12


class SingularTiltError(ValueError):
    """Tilt angle makes the camera-to-ground mapping undefined."""


class HorizonPointError(ValueError):
    """Pixel maps to infinity under the ground-plane projection."""


class HomographyEstimationError(ValueError):
    """Point correspondences do not determine a projective map."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned person box in image pixels, center format."""

    cx: float
    cy: float
    w: float
    h: float
    conf: float = 1.0

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        if not (0.0 <= self.conf <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.conf}")

    @classmethod
    def from_ltwh(cls, left: float, top: float, w: float, h: float, conf: float = 1.0) -> "BBox":
        return cls(left + w / 2.0, top + h / 2.0, w, h, conf)

    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) with x1 < x2 and y1 < y2."""
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class CIoUBreakdown:
    """All intermediate terms of the complete-IoU loss."""

    iou: float
    rho2: float
    c2: float
    v: float
    alpha: float
    loss: float


@dataclass(frozen=True)
class GroundPoint:
    """Point in the bird's-eye-view ground plane."""

    xw: float
    yw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xw) and math.isfinite(self.yw)):
            raise ValueError(f"ground point must be finite, got ({self.xw}, {self.yw})")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area() + b.area() - inter
    return inter / union


def boxes_array(boxes) -> np.ndarray:
    """(n, 4) center-format (cx, cy, w, h) array from an array or a sequence of BBox."""
    if isinstance(boxes, np.ndarray):
        return boxes.reshape(-1, 4)
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(rows, cols) -> np.ndarray:
    """Pairwise IoU of two box sets, bit-identical to the scalar iou().

    Each side is an (n, 4) center-format array or a sequence of BBox.
    """
    A, B = boxes_array(rows), boxes_array(cols)
    a_lo, a_hi = A[:, :2] - A[:, 2:] / 2.0, A[:, :2] + A[:, 2:] / 2.0
    b_lo, b_hi = (B[:, :2] - B[:, 2:] / 2.0).T, (B[:, :2] + B[:, 2:] / 2.0).T
    iw = np.minimum(a_hi[:, 0, None], b_hi[0]) - np.maximum(a_lo[:, 0, None], b_lo[0])
    ih = np.minimum(a_hi[:, 1, None], b_hi[1]) - np.maximum(a_lo[:, 1, None], b_lo[1])
    # disjoint pairs get zero overlap, so their IoU is 0 / union = 0
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (A[:, 2] * A[:, 3])[:, None] + B[:, 2] * B[:, 3] - inter
    return inter / union


def ciou_loss(pred: BBox, gt: BBox) -> CIoUBreakdown:
    """Complete-IoU loss: 1 - IoU + center-distance and aspect penalties.

    The aspect term is v = (4/pi^2) * (arctan(w_gt/h_gt) - arctan(w/h))^2
    with trade-off alpha = v / ((1 - IoU) + v).
    """
    i = iou(pred, gt)
    rho2 = (pred.cx - gt.cx) ** 2 + (pred.cy - gt.cy) ** 2

    px1, py1, px2, py2 = pred.corners()
    gx1, gy1, gx2, gy2 = gt.corners()
    cw = max(px2, gx2) - min(px1, gx1)
    ch = max(py2, gy2) - min(py1, gy1)
    c2 = cw * cw + ch * ch

    v = (4.0 / math.pi**2) * (math.atan2(gt.w, gt.h) - math.atan2(pred.w, pred.h)) ** 2
    # alpha is 0/0 when boxes coincide (IoU 1, v 0); the penalty vanishes there.
    alpha = 0.0 if v == 0.0 else v / ((1.0 - i) + v)

    if c2 <= 0.0:
        return CIoUBreakdown(iou=i, rho2=0.0, c2=c2, v=v, alpha=alpha, loss=1.0 - i)
    loss = 1.0 - i + rho2 / c2 + alpha * v
    return CIoUBreakdown(iou=i, rho2=rho2, c2=c2, v=v, alpha=alpha, loss=loss)


def foot_point(boxes) -> np.ndarray:
    """(n, 2) bottom-edge midpoints, the ground contacts, of boxes_array(boxes)."""
    B = boxes_array(boxes)
    return np.stack([B[:, 0], B[:, 1] + B[:, 3] / 2.0], axis=1)


@dataclass
class CameraModel:
    """Camera intrinsics/extrinsics and the derived 3x3 ground-plane projection.

    Treated as immutable after construction; build once, then share freely.
    """

    f: float = 1.0
    ku: float = 1.0
    kv: float = 1.0
    skew: float = 0.0
    cx: float = 0.0
    cy: float = 0.0
    theta: float = 0.0
    height: float = 1.0
    M: np.ndarray | None = field(default=None)

    @classmethod
    def from_intrinsics(
        cls,
        f: float,
        ku: float,
        kv: float,
        cx: float,
        cy: float,
        theta: float,
        height: float,
        skew: float = 0.0,
    ) -> "CameraModel":
        cam = cls(f=f, ku=ku, kv=kv, skew=skew, cx=cx, cy=cy, theta=theta, height=height)
        build_projection(cam)
        return cam

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "CameraModel":
        M = np.asarray(M, dtype=float)
        if M.shape != (3, 3):
            raise ValueError(f"projection matrix must be 3x3, got {M.shape}")
        if abs(np.linalg.det(M)) <= SINGULARITY_TOL:
            raise ValueError("projection matrix is singular")
        cam = cls()
        cam.M = M
        return cam


def intrinsic_matrix(cam: CameraModel) -> np.ndarray:
    """3x4 intrinsic matrix K."""
    return np.array(
        [
            [cam.f * cam.ku, cam.skew, cam.cx, 0.0],
            [0.0, cam.f * cam.kv, cam.cy, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )


def rotation_matrix(theta: float) -> np.ndarray:
    """4x4 tilt rotation about the horizontal axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def translation_matrix(theta: float, height: float) -> np.ndarray:
    """4x4 translation placing the camera at its mounting height."""
    s = math.sin(theta)
    if abs(s) < 1e-9:
        raise SingularTiltError(f"tilt theta={theta} has |sin(theta)| < 1e-9")
    T = np.eye(4)
    T[2, 3] = -height / s
    return T


def build_projection(cam: CameraModel) -> np.ndarray:
    """Compose K * R * T, drop the Z column (ground plane Z=0), store as cam.M."""
    if cam.height <= 0:
        raise ValueError(f"camera height must be positive, got {cam.height}")
    K = intrinsic_matrix(cam)
    R = rotation_matrix(cam.theta)
    T = translation_matrix(cam.theta, cam.height)
    P = K @ R @ T  # 3x4
    M = P[:, [0, 1, 3]]
    if abs(np.linalg.det(M)) <= SINGULARITY_TOL:
        raise SingularTiltError("derived projection matrix is singular")
    cam.M = M
    return M


def project_to_bev(M: np.ndarray, pts) -> np.ndarray:
    """Map (n, 2) pixel points through M to (n, 2) ground-plane points.

    Raises HorizonPointError for a pixel that maps to infinity, and
    ValueError when a ground point overflows.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    den = M[2, 0] * x + M[2, 1] * y + M[2, 2]
    horizon = np.abs(den) < SINGULARITY_TOL
    if horizon.any():
        px, py = pts[np.argmax(horizon)].tolist()
        raise HorizonPointError(f"pixel ({px}, {py}) maps to infinity")
    ground = np.stack([(M[0, 0] * x + M[0, 1] * y + M[0, 2]) / den,
                       (M[1, 0] * x + M[1, 1] * y + M[1, 2]) / den], axis=1)
    if not np.isfinite(ground).all():
        raise ValueError("ground point must be finite")
    return ground


def _normalize_for_dlt(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift to centroid and scale to mean distance sqrt(2) (conditioning)."""
    mean = pts.mean(axis=0)
    dist = np.sqrt(((pts - mean) ** 2).sum(axis=1)).mean()
    if dist < SINGULARITY_TOL:
        raise HomographyEstimationError("correspondence points are coincident")
    s = math.sqrt(2.0) / dist
    T = np.array([[s, 0.0, -s * mean[0]], [0.0, s, -s * mean[1]], [0.0, 0.0, 1.0]])
    ones = np.ones((pts.shape[0], 1))
    normed = (T @ np.hstack([pts, ones]).T).T[:, :2]
    return normed, T


def estimate_homography(
    correspondences: list[tuple[tuple[float, float], GroundPoint | tuple[float, float]]],
) -> np.ndarray:
    """Estimate the 3x3 pixel-to-ground map from n >= 4 point correspondences.

    Normalized direct linear transform: solve the homogeneous system by SVD
    in conditioned coordinates, denormalize, and scale so m33 = 1.

    Raises HomographyEstimationError on degenerate configurations
    (fewer than 4 points, collinear points, rank-deficient system).
    """
    if len(correspondences) < 4:
        raise HomographyEstimationError(
            f"need at least 4 correspondences, got {len(correspondences)}"
        )
    src = np.array([[float(p[0]), float(p[1])] for p, _ in correspondences])
    dst = np.array(
        [
            [g.xw, g.yw] if isinstance(g, GroundPoint) else [float(g[0]), float(g[1])]
            for _, g in correspondences
        ]
    )

    src_n, T_src = _normalize_for_dlt(src)
    dst_n, T_dst = _normalize_for_dlt(dst)

    rows = []
    for (x, y), (xp, yp) in zip(src_n, dst_n):
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, yp * x, yp * y, yp])
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -xp * x, -xp * y, -xp])
    A = np.asarray(rows)

    _, sv, Vt = np.linalg.svd(A)
    # With >= 4 points the nullspace is 1-D unless the configuration is
    # degenerate (e.g. 3 collinear among any 4 used).
    if sv[0] <= 0 or (len(sv) >= 8 and sv[7] < 1e-10 * sv[0]):
        raise HomographyEstimationError("degenerate correspondence configuration")
    H_n = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(T_dst) @ H_n @ T_src
    if abs(H[2, 2]) < SINGULARITY_TOL:
        raise HomographyEstimationError("estimated map sends the origin to infinity")
    H = H / H[2, 2]
    if abs(np.linalg.det(H)) <= SINGULARITY_TOL:
        raise HomographyEstimationError("estimated projection matrix is singular")
    return H
