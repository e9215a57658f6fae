"""Detection ingest: MOTChallenge det files and line-delimited JSON.

Both parsers produce the same frame-grouped arrays, so a recorded file and
a live detector process writing JSON lines are interchangeable.  Each frame
holds an (m, 5) float array of (cx, cy, w, h, conf) rows in file order.
Syntactically broken lines raise a DetectionParseError naming the line;
records violating box invariants (a NaN or infinite center, side or
confidence; non-positive sides; confidence outside [0, 1]; an area w*h,
aspect w/h or corner cx +- w/2, cy +- h/2 that overflows to infinity) are
dropped and counted in `rejected`.
"""

from __future__ import annotations

import array
import json
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable, Iterator

import numpy as np


class DetectionParseError(ValueError):
    """Malformed detection input, annotated with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class IngestResult:
    """Frame-grouped detections plus ingest accounting.

    `frames` holds (frame, rows) pairs in increasing frame order; rows is an
    (m, 5) array of (cx, cy, w, h, conf) in file order.
    """

    frames: tuple[tuple[int, np.ndarray], ...]
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


def _group(frames: list[int], rows: np.ndarray) -> IngestResult:
    """Group the (cx, cy, w, h, conf) rows that keep the box invariants by frame.

    Row i is from frame frames[i].
    """
    cx, cy, w, h, conf = rows.T
    ok = np.isfinite(rows).all(axis=1) & (w > 0) & (h > 0) & (conf >= 0.0) & (conf <= 1.0)
    # the tracker's (u, v, area, aspect) observation and the corners must be finite too
    with np.errstate(all="ignore"):
        for derived in (w * h, w / h, cx - w / 2.0, cx + w / 2.0, cy - h / 2.0, cy + h / 2.0):
            ok &= np.isfinite(derived)
    keep = np.flatnonzero(ok).tolist()
    by_frame: dict[int, list[int]] = {}
    for i in keep:  # file order within a frame
        by_frame.setdefault(frames[i], []).append(i)
    grouped = tuple((f, rows[by_frame[f]]) for f in sorted(by_frame))
    return IngestResult(frames=grouped, accepted=len(keep), rejected=len(rows) - len(keep))


def parse_mot_detections(source: str | IO[str] | Iterable[str]) -> IngestResult:
    """Parse `frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z` lines.

    The id field is ignored (detections are unassociated); box coordinates
    convert from left/top to center format.  Out-of-order frame blocks are
    re-sorted, preserving the in-file order within each frame.
    """
    frames: list[int] = []
    values = array.array("d")
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) < 7:
            raise DetectionParseError(line_no, f"expected >= 7 comma fields, got {len(fields)}")
        try:
            frame = int(fields[0])
            values.extend(map(float, fields[2:7]))
        except ValueError:
            raise DetectionParseError(line_no, f"non-numeric field in {line!r}") from None
        if frame < 1:
            raise DetectionParseError(line_no, f"frame index must be >= 1, got {frame}")
        frames.append(frame)
    rows = np.frombuffer(values, dtype=float).reshape(-1, 5)
    with np.errstate(invalid="ignore", over="ignore"):
        rows[:, :2] += rows[:, 2:4] / 2.0  # left, top -> cx, cy
    return _group(frames, rows)


_JSONL_KEYS = ("frame", "x", "y", "w", "h", "conf")
_jsonl_fields = itemgetter(*_JSONL_KEYS)


def parse_jsonl_detections(source: str | IO[str] | Iterable[str]) -> IngestResult:
    """Parse one JSON object per line: {frame, x, y, w, h, conf}, (x, y) the box center.

    Every field must be a JSON number, and `frame` an integral one; a string,
    boolean or null there is a DetectionParseError naming the line.
    """
    frames: list[int] = []
    values = array.array("d")
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
        try:
            frame, *box = _jsonl_fields(obj)
        except KeyError:
            missing = [k for k in _JSONL_KEYS if k not in obj]
            raise DetectionParseError(line_no, f"missing keys {missing}") from None
        if type(frame) is not int and not (type(frame) is float and frame.is_integer()):
            raise DetectionParseError(line_no, f"frame must be an integer, got {frame!r}")
        frame = int(frame)
        try:
            values.extend(box)  # takes int and float, raises on str, null, list, object
        except (TypeError, OverflowError):
            raise DetectionParseError(line_no, "non-numeric value") from None
        # JSON true/false, which extend takes as 1.0/0.0; the text test keeps
        # the check off the common line's path
        if ("true" in line or "false" in line) and bool in map(type, box):
            raise DetectionParseError(line_no, "non-numeric value")
        if frame < 1:
            raise DetectionParseError(line_no, f"frame index must be >= 1, got {frame}")
        frames.append(frame)
    return _group(frames, np.frombuffer(values, dtype=float).reshape(-1, 5))


def parse_detections(source: str | IO[str] | Iterable[str], fmt: str = "mot") -> IngestResult:
    if fmt == "mot":
        return parse_mot_detections(source)
    if fmt == "jsonl":
        return parse_jsonl_detections(source)
    raise ValueError(f"unknown detection format {fmt!r} (expected 'mot' or 'jsonl')")
