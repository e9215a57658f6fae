"""Per-frame orchestration: track, project, evaluate distances, accumulate risk.

One run consumes a frame-ordered detection stream and leaves everything on
disk: MOT-format track file, per-frame stats table, run summary, value
tables for the grids, and the rendered rasters.  Two runs over the same
input and config produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import rasters
from .config import RunConfig
from .detections import IngestResult
from .distancing import (
    CoupleRegistry,
    FramePositions,
    classify_zones,
    frame_stats,
    pairwise_violations,
    update_couples,
)
from .risk import (
    CrowdGrid,
    LongTermCrowd,
    RiskGrid,
    ViolationGrid,
    accumulate_tracking,
    accumulate_violations,
    advance_to,
    crowd_step,
)
from .tracking import Tracker, format_mot_line

STATS_HEADER = "frame,total,red,yellow_pairs,green,new_ids,dead_ids"


class PipelineError(RuntimeError):
    """Failure during a run, stamped with the frame where it happened."""


@dataclass(frozen=True)
class PipelineSummary:
    frames_processed: int
    detections_ingested: int
    detections_rejected: int
    detections_below_confidence: int
    detections_processed: int
    tracks_created: int
    person_frames: int
    red_person_frames: int
    yellow_pair_frames: int
    green_person_frames: int
    violation_ratio: float
    peak_red_frame: int | None
    peak_red_count: int
    dropped_stamps: int


def _frame_detections(ingest: IngestResult, conf_threshold: float, tracker: Tracker):
    """Yield (frame, rows, k) covering every frame from first to last.

    rows are the frame's detection rows at or above `conf_threshold`.  k is
    1, except for a stretch of k > 1 frames without rows that begins while
    `tracker` is idle: it comes as one item with no rows.  The tracker is
    asked when an item is due, after the caller has stepped it through the
    items before.
    """
    if not ingest.frames:
        return
    kept = ((f, rows[rows[:, 4] >= conf_threshold]) for f, rows in ingest.frames)
    busy = [(f, rows) for f, rows in kept if len(rows)]
    no_rows = np.zeros((0, 5))
    frame = ingest.first_frame
    for next_busy, rows in busy + [(ingest.last_frame + 1, None)]:
        while frame < next_busy:
            k = next_busy - frame if tracker.idle else 1
            yield frame, no_rows, k
            frame += k
        if rows is not None:
            yield frame, rows, 1
            frame += 1


def run_pipeline(
    config: RunConfig,
    ingest: IngestResult,
    out_dir: str | None = None,
    tracks_only: bool = False,
) -> PipelineSummary:
    """Run the full per-frame pipeline and write all artifacts under out_dir.

    Every frame from the first detection to the last gets a stats row.  Once
    every track has died, the frames up to the next detection are advanced
    in one step: the tracker would only record them, and the crowd grids
    lag behind until a stamp or the end of the run brings their cells up
    to date (`advance_to`).
    """
    out = out_dir if out_dir is not None else config.out_dir
    os.makedirs(out, exist_ok=True)

    tracker = Tracker(
        projection=config.projection,
        iou_gate=config.tracker.iou_gate,
        min_hits=config.tracker.min_hits,
        max_age=config.tracker.max_age,
    )
    rc = config.risk
    tracking_grid = RiskGrid(rc.grid_width, rc.grid_height, rc.cell_scale)
    violation_grid = ViolationGrid(
        rc.grid_width, rc.grid_height, alpha=rc.alpha, beta=rc.beta, delta=rc.delta,
        cell_scale=rc.cell_scale,
    )
    crowd = CrowdGrid(rc.grid_width, rc.grid_height, rc.decay_gamma, rc.cell_scale)
    long_term = LongTermCrowd(rc.grid_width, rc.grid_height, rc.long_term_smoothing)
    registry = CoupleRegistry()

    track_text: list[str] = []  # one string per frame
    stats_rows: list[str | range] = []  # a row's text, or a range of frames with nobody
    frames_processed = 0
    processed = 0  # detection rows at or above the confidence threshold
    person_frames = 0
    red_frames = 0
    yellow_pair_frames = 0
    green_frames = 0
    peak_red_frame: int | None = None
    peak_red = 0

    for frame, rows, k in _frame_detections(ingest, config.tracker.conf_threshold, tracker):
        try:
            if k > 1:
                # Idle tracker, no boxes: each step would only record its frame,
                # the couple counters stay empty and every stats row is zero.
                if not tracks_only:
                    stats_rows.append(range(frame, frame + k))
                frames_processed += k
                continue

            tracks = tracker.step(rows, frame)
            processed += len(rows)
            ids = tracks.ids.tolist()
            track_text.append(format_mot_line(frame, ids, tracks.boxes, tracks.conf))

            if tracks_only:
                frames_processed += 1
                continue

            pos = FramePositions(frame, ids, tracks.ground)
            violations = pairwise_violations(pos, config.policy)
            if config.couples_enabled:
                update_couples(registry, pos, config.policy)
            labels = classify_zones(pos, violations, registry, config.policy)
            stats = frame_stats(labels)

            accumulate_tracking(tracking_grid, pos)
            accumulate_violations(violation_grid, labels, pos)
            if config.crowd_map_enabled:
                crowd_step(crowd, pos)
                long_term.update(crowd)

            assert stats.total == stats.red + 2 * stats.yellow_pairs + stats.green
            stats_rows.append(
                f"{frame},{stats.total},{stats.red},{stats.yellow_pairs},{stats.green},"
                f"{len(tracker.last_spawned)},{len(tracker.last_removed)}\n"
            )

            person_frames += stats.total
            red_frames += stats.red
            yellow_pair_frames += stats.yellow_pairs
            green_frames += stats.green
            if stats.red > peak_red:
                peak_red = stats.red
                peak_red_frame = frame
            frames_processed += 1
        except Exception as exc:
            raise PipelineError(f"frame {frame}: {exc}") from exc

    with open(os.path.join(out, "tracks.txt"), "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(track_text)

    dropped = 0
    if not tracks_only:
        # the tracking grid is also the presence layer: its drops count for both
        dropped = (2 * tracking_grid.dropped + violation_grid.layer_r.dropped
                   + violation_grid.layer_y.dropped + crowd.grid.dropped)
        _write_stats(os.path.join(out, "stats.csv"), stats_rows)
        # each grid with the cells its stamps reached: no pass over a whole grid
        tables = {
            "tracking_grid": (tracking_grid.values, tracking_grid.reached()),
            "violation_grid": violation_grid.combined(tracking_grid),
        }
        if config.crowd_map_enabled:
            advance_to(crowd, long_term, ingest.last_frame)
            stamped = crowd.grid.reached()  # the average is +0.0 where the crowd was never stamped
            tables["crowd_grid"] = (crowd.values, stamped)
            tables["longterm_crowd"] = (long_term.values, stamped)
        _write_rasters(out, tables)
        for name, (values, cells) in tables.items():
            rasters.write_value_table(os.path.join(out, f"{name}.txt"), values, cells)

    summary = PipelineSummary(
        frames_processed=frames_processed,
        detections_ingested=ingest.accepted,
        detections_rejected=ingest.rejected,
        detections_below_confidence=ingest.accepted - processed,
        detections_processed=processed,
        tracks_created=tracker.next_id - 1,
        person_frames=person_frames,
        red_person_frames=red_frames,
        yellow_pair_frames=yellow_pair_frames,
        green_person_frames=green_frames,
        violation_ratio=(red_frames / person_frames) if person_frames else 0.0,
        peak_red_frame=peak_red_frame,
        peak_red_count=peak_red,
        dropped_stamps=dropped,
    )
    with open(os.path.join(out, "summary.json"), "w", encoding="ascii", newline="\n") as fh:
        json.dump(asdict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _write_stats(path: str, rows: list[str | range]) -> None:
    """The header, then each row's text; a range stands for frames with nobody in them."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(STATS_HEADER + "\n")
        for row in rows:
            if isinstance(row, range):
                fh.writelines(f"{frame},0,0,0,0,0,0\n" for frame in row)
            else:
                fh.write(row)


def _write_rasters(out: str, tables: dict[str, tuple[np.ndarray, np.ndarray]]) -> list[str]:
    """Write `<name>.pgm` per grid, then the tracking and violation heatmap; return the paths.

    tables maps each name to its grid and candidate cells.  The violation
    grid's cells hold the tracking grid's, so they serve the heatmap.
    """
    written = []
    for name, (values, cells) in tables.items():
        written.append(os.path.join(out, f"{name}.pgm"))
        rasters.write_pgm16(written[-1], values, cells)
    written.append(os.path.join(out, "heatmap.ppm"))
    S, cells = tables["violation_grid"]
    rasters.write_heatmap_ppm(written[-1], tables["tracking_grid"][0], S, cells)
    return written


def render_from_tables(tables_dir: str, out_dir: str) -> list[str]:
    """Re-render rasters from previously written value tables.

    Needs tracking_grid.txt and violation_grid.txt; crowd tables are
    re-rendered when present.  Every table is read and checked, all of one
    shape, before the first raster is written, so a bad table leaves no
    partial raster set.  One scan of the tables (`rasters.live_cells`)
    gives the candidate cells of every raster.  Returns the written raster
    paths.
    """
    names = ("tracking_grid", "violation_grid", "crowd_grid", "longterm_crowd")
    paths = {name: os.path.join(tables_dir, f"{name}.txt") for name in names}
    for name in names[:2]:
        if not os.path.exists(paths[name]):
            raise FileNotFoundError(f"missing value table: {paths[name]}")
    tables = {
        name: rasters.read_value_table(path)
        for name, path in paths.items()
        if os.path.exists(path)
    }
    shape = tables["tracking_grid"].shape
    for name, values in tables.items():
        if values.shape != shape:
            raise ValueError(
                f"{paths[name]}: shape {values.shape} differs from tracking_grid.txt {shape}"
            )
    cells = rasters.live_cells(*tables.values())
    os.makedirs(out_dir, exist_ok=True)
    return _write_rasters(out_dir, {name: (values, cells) for name, values in tables.items()})
