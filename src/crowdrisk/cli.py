"""Command-line entry points.

Subcommands:
  track      run tracking only and emit the MOT-format track file
  analyze    run the full distancing/risk pipeline and emit all artifacts
  heatmap    re-render rasters from previously saved value tables
  calibrate  estimate a ground-plane homography from point correspondences
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .config import RunConfig, format_homography_block, load_config
from .detections import parse_detections
from .geometry import estimate_homography
from .pipeline import render_from_tables, run_pipeline


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="calibration/run config file")
    sub.add_argument("--det", required=True, help="detection file")
    sub.add_argument("--format", choices=("mot", "jsonl"), default="mot",
                     help="detection file format (default: mot)")
    sub.add_argument("--out", default=None, help="output directory (default: from config)")
    sub.add_argument("--fps", type=float, default=None, help="override stream frame rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crowdrisk",
                                     description="Social-distancing analytics engine")
    subs = parser.add_subparsers(dest="command", required=True)

    track = subs.add_parser("track", help="emit tracks only")
    _add_run_flags(track)

    analyze = subs.add_parser("analyze", help="run the full pipeline")
    _add_run_flags(analyze)
    analyze.add_argument("--couples", choices=("on", "off"), default=None,
                         help="toggle couple detection")
    analyze.add_argument("--crowd", choices=("on", "off"), default=None,
                         help="toggle the decaying crowd map")

    heatmap = subs.add_parser("heatmap", help="re-render rasters from value tables")
    heatmap.add_argument("--tables", required=True, help="directory holding *_grid.txt tables")
    heatmap.add_argument("--out", required=True, help="output directory for rasters")

    calibrate = subs.add_parser("calibrate", help="estimate a homography from points")
    calibrate.add_argument("--points", required=True,
                           help="correspondence file: lines of `u v xw yw`")
    calibrate.add_argument("--out", default=None,
                           help="write the [homography] block here (default: stdout)")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.fps is not None:
        config.policy = dataclasses.replace(config.policy, fps=args.fps)
    if getattr(args, "couples", None) is not None:
        config.couples_enabled = args.couples == "on"
    if getattr(args, "crowd", None) is not None:
        config.crowd_map_enabled = args.crowd == "on"
    return config


def _run(args: argparse.Namespace, tracks_only: bool) -> int:
    config = _apply_overrides(load_config(args.config), args)
    ingest = parse_detections(args.det, args.format)
    summary = run_pipeline(config, ingest, out_dir=args.out, tracks_only=tracks_only)
    print(
        f"processed {summary.frames_processed} frames, "
        f"{summary.detections_ingested} detections "
        f"({summary.detections_rejected} rejected at ingest)"
    )
    return 0


def _read_points(path: str) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{line_no}: expected `u v xw yw`, got {raw!r}")
            try:
                u, v, xw, yw = (float(x) for x in parts)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric field in {raw!r}") from None
            if not all(map(math.isfinite, (u, v, xw, yw))):
                raise ValueError(f"{path}:{line_no}: non-finite field in {raw!r}")
            points.append(((u, v), (xw, yw)))
    return points


def _calibrate(args: argparse.Namespace) -> int:
    M = estimate_homography(_read_points(args.points))
    block = format_homography_block(np.asarray(M))
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(block)
        print(f"wrote homography to {args.out}")
    else:
        sys.stdout.write(block)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "track":
            return _run(args, tracks_only=True)
        if args.command == "analyze":
            return _run(args, tracks_only=False)
        if args.command == "heatmap":
            written = render_from_tables(args.tables, args.out)
            print(f"rendered {len(written)} rasters to {args.out}")
            return 0
        if args.command == "calibrate":
            return _calibrate(args)
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
