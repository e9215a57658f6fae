"""Streaming social-distancing analytics from per-frame person detections.

Ingests detections, tracks individuals, projects them to a metric ground
plane, evaluates distancing violations and couple groups, and accumulates
zone-based risk maps exported as rasters and reports.
"""

from .assignment import Assignment, solve_assignment
from .config import ConfigError, RunConfig, load_config
from .detections import (
    DetectionParseError,
    IngestResult,
    parse_detections,
    parse_jsonl_detections,
    parse_mot_detections,
)
from .distancing import (
    CoupleRegistry,
    DistancePolicy,
    FramePositions,
    FrameStats,
    ZoneLabel,
    classify_zones,
    frame_stats,
    pairwise_violations,
    update_couples,
)
from .geometry import (
    BBox,
    CIoUBreakdown,
    build_projection,
    ciou_loss,
    estimate_homography,
    foot_point,
    iou,
    project_to_bev,
    projection_matrix,
)
from .pipeline import PipelineError, PipelineSummary, run_pipeline
from .risk import (
    CrowdGrid,
    RiskGrid,
    ViolationGrid,
    accumulate_tracking,
    accumulate_violations,
    crowd_step,
    normalize,
    stamp_kernel,
)
from .tracking import (
    FrameTracks,
    KalmanParams,
    TrackArrays,
    Tracker,
    associate,
    kalman_predict,
    kalman_update,
)

__version__ = "0.1.0"
