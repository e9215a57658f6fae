"""Detection ingest: MOTChallenge det files and line-delimited JSON.

Both parsers produce the same frame-grouped records, so a recorded file
and a live detector process writing JSON lines are interchangeable.
Syntactically broken lines raise a DetectionParseError naming the line;
records violating box invariants (a NaN or infinite center, side or
confidence; non-positive sides; confidence outside [0, 1]; an area w*h,
aspect w/h or corner cx +- w/2, cy +- h/2 that overflows to infinity) are
dropped and counted in `rejected`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .geometry import BBox


class DetectionParseError(ValueError):
    """Malformed detection input, annotated with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DetectionRecord:
    frame: int
    bbox: BBox


@dataclass(frozen=True)
class IngestResult:
    """Frame-grouped detections plus ingest accounting."""

    frames: tuple[tuple[int, tuple[DetectionRecord, ...]], ...]
    accepted: int
    rejected: int

    @property
    def first_frame(self) -> int | None:
        return self.frames[0][0] if self.frames else None

    @property
    def last_frame(self) -> int | None:
        return self.frames[-1][0] if self.frames else None


def _lines(source: str | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def _group(records: list[DetectionRecord], rejected: int) -> IngestResult:
    by_frame: dict[int, list[DetectionRecord]] = {}
    for rec in records:  # stable: insertion order preserved within a frame
        by_frame.setdefault(rec.frame, []).append(rec)
    frames = tuple((f, tuple(by_frame[f])) for f in sorted(by_frame))
    return IngestResult(frames=frames, accepted=len(records), rejected=rejected)


def _validated(frame: int, cx: float, cy: float, w: float, h: float, conf: float):
    """DetectionRecord, or None for records breaking box invariants."""
    if not all(map(math.isfinite, (cx, cy, w, h, conf))):
        return None
    if w <= 0 or h <= 0 or not (0.0 <= conf <= 1.0):
        return None
    # the tracker's (u, v, area, aspect) observation and the corners must be finite too
    derived = (w * h, w / h, cx - w / 2.0, cx + w / 2.0, cy - h / 2.0, cy + h / 2.0)
    if not all(map(math.isfinite, derived)):
        return None
    return DetectionRecord(frame=frame, bbox=BBox(cx, cy, w, h, conf))


def parse_mot_detections(source: str | IO[str] | Iterable[str]) -> IngestResult:
    """Parse `frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z` lines.

    The id field is ignored (detections are unassociated); box coordinates
    convert from left/top to center format.  Out-of-order frame blocks are
    re-sorted, preserving the in-file order within each frame.
    """
    records: list[DetectionRecord] = []
    rejected = 0
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) < 7:
            raise DetectionParseError(line_no, f"expected >= 7 comma fields, got {len(fields)}")
        try:
            frame = int(fields[0])
            left, top, w, h, conf = (float(x) for x in fields[2:7])
        except ValueError:
            raise DetectionParseError(line_no, f"non-numeric field in {line!r}") from None
        if frame < 1:
            raise DetectionParseError(line_no, f"frame index must be >= 1, got {frame}")
        rec = _validated(frame, left + w / 2.0, top + h / 2.0, w, h, conf)
        if rec is None:
            rejected += 1
        else:
            records.append(rec)
    return _group(records, rejected)


_JSONL_KEYS = ("frame", "x", "y", "w", "h", "conf")


def parse_jsonl_detections(source: str | IO[str] | Iterable[str]) -> IngestResult:
    """Parse one JSON object per line: {frame, x, y, w, h, conf}, (x, y) the box center."""
    records: list[DetectionRecord] = []
    rejected = 0
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DetectionParseError(line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise DetectionParseError(line_no, "record must be a JSON object")
        missing = [k for k in _JSONL_KEYS if k not in obj]
        if missing:
            raise DetectionParseError(line_no, f"missing keys {missing}")
        try:
            frame = int(obj["frame"])
            cx, cy, w, h, conf = (float(obj[k]) for k in _JSONL_KEYS[1:])
        except (TypeError, ValueError, OverflowError):
            raise DetectionParseError(line_no, "non-numeric value") from None
        if frame < 1:
            raise DetectionParseError(line_no, f"frame index must be >= 1, got {frame}")
        rec = _validated(frame, cx, cy, w, h, conf)
        if rec is None:
            rejected += 1
        else:
            records.append(rec)
    return _group(records, rejected)


def parse_detections(source: str | IO[str] | Iterable[str], fmt: str = "mot") -> IngestResult:
    if fmt == "mot":
        return parse_mot_detections(source)
    if fmt == "jsonl":
        return parse_jsonl_detections(source)
    raise ValueError(f"unknown detection format {fmt!r} (expected 'mot' or 'jsonl')")
