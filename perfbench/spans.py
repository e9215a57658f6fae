"""Spans and counters around the calls into each crowdrisk layer.

The benchmark wraps module and class attributes of the unmodified package;
nothing in `src/` knows it is being traced.  A wrapper is installed where the
caller looks the name up: `crowdrisk.pipeline.crowd_step`, not
`crowdrisk.risk.crowd_step`, because the pipeline imported the name.

A hook whose target no longer exists is skipped, and every metric that needs
it is reported as None; so are the counters of a hook whose call no longer
has the arguments it reads.  Refactors that remove or reshape a function
therefore leave the benchmark running, with nulls where the old boundary was.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Span:
    """Aggregate of one hooked call site: total and self seconds, calls."""

    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


@dataclass(frozen=True)
class Hook:
    span: str  # span name, "<layer>.<what>"
    target: str  # "module:attr" or "module:Class.attr"
    count: Callable | None = None  # count(tracer, args, result), after a successful call


FRAME_SPAN = "tracking.step"  # called once per frame: its start times give frame times


class Tracer:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, int] = {}
        self.installed: set[str] = set()
        self.uncounted: set[str] = set()  # spans whose counters could not be read
        self.frame_starts: list[float] = []
        self._open: list[float] = []  # per open span: seconds covered by its children

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        span = self.spans.setdefault(hook.span, Span())
        open_spans = self._open
        count = hook.count
        keep_start = hook.span == FRAME_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            if keep_start:
                self.frame_starts.append(t0)
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                span.total += dt
                span.self_time += dt - children
                span.calls += 1
            if count is not None and hook.span not in self.uncounted:
                try:
                    count(self, args, result)
                except (IndexError, AttributeError, TypeError, ValueError, OSError):
                    # the call's arguments or result no longer have the shape read here
                    self.uncounted.add(hook.span)
            return result

        return wrapper

    def install(self, hooks: list[Hook]) -> None:
        for hook in hooks:
            module_name, attr_path = hook.target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            setattr(owner, attr, self.wrap(hook, fn))
            self.installed.add(hook.span)

    def total(self, *names: str) -> float | None:
        if not all(n in self.installed for n in names):
            return None
        return sum(self.spans[n].total for n in names)

    def self_time(self, name: str) -> float | None:
        return self.spans[name].self_time if name in self.installed else None

    def calls(self, name: str) -> int | None:
        return self.spans[name].calls if name in self.installed else None

    def counter(self, name: str, needs: tuple[str, ...]) -> int | None:
        if not all(n in self.installed and n not in self.uncounted for n in needs):
            return None
        return self.counters.get(name, 0)


def _count_step(tr: Tracer, args, result) -> None:
    tracker, detections = args[0], args[1]
    tr.add("tracking.spawned", len(tracker.last_spawned))
    tr.add("tracking.removed", len(tracker.last_removed))
    tr.add("tracking.confirmed_out", len(result))
    tr.add("pipeline.empty_frames", int(len(detections) == 0))


def _count_solve(tr: Tracer, args, result) -> None:
    rows, cols = np.shape(args[0])
    tr.add("assignment.cells", rows * cols)
    tr.counters["assignment.max_dim"] = max(tr.counters.get("assignment.max_dim", 0), rows, cols)
    tr.add("assignment.raw_matches", len(result.matches))


def _count_associate(tr: Tracer, args, result) -> None:
    tr.add("tracking.gated_matches", len(result.matches))


def _count_violations(tr: Tracer, args, result) -> None:
    n = len(args[0].entries)
    tr.add("distancing.pairs", n * (n - 1) // 2)
    tr.add("distancing.violation_pairs", len(result))


def _count_stamp_tracking(tr: Tracer, args, result) -> None:
    tr.add("risk.stamps", len(args[1].entries))


def _count_stamp_violations(tr: Tracer, args, result) -> None:
    # layer T stamps everyone; layers R and Y stamp red and yellow people
    flagged = sum(1 for label in args[1].values() if label.value != "green")
    tr.add("risk.stamps", len(args[2].entries) + flagged)


def _count_crowd(tr: Tracer, args, result) -> None:
    tr.add("risk.cells_updated", args[0].values.size)
    tr.add("risk.stamps", len(args[1].entries))


def _count_longterm(tr: Tracer, args, result) -> None:
    tr.add("risk.cells_updated", args[0].values.size)


def _count_bytes(tr: Tracer, args, result) -> None:
    tr.add("rasters.bytes_written", os.path.getsize(args[0]))


HOOKS = [
    Hook("config.load", "crowdrisk.config:load_config"),
    Hook("detections.parse", "crowdrisk.detections:parse_detections"),
    Hook("pipeline.run", "crowdrisk.pipeline:run_pipeline"),
    Hook("pipeline.format", "crowdrisk.pipeline:format_mot_line"),
    Hook("tracking.step", "crowdrisk.tracking:Tracker.step", _count_step),
    Hook("tracking.predict", "crowdrisk.tracking:kalman_predict"),
    Hook("tracking.update", "crowdrisk.tracking:kalman_update"),
    Hook("tracking.associate", "crowdrisk.tracking:associate", _count_associate),
    Hook("assignment.solve", "crowdrisk.tracking:solve_assignment", _count_solve),
    Hook("geometry.iou_matrix", "crowdrisk.tracking:iou_matrix"),
    Hook("geometry.project", "crowdrisk.tracking:project_to_bev"),
    Hook("distancing.violations", "crowdrisk.pipeline:pairwise_violations", _count_violations),
    Hook("distancing.couples", "crowdrisk.pipeline:update_couples"),
    Hook("distancing.zones", "crowdrisk.pipeline:classify_zones"),
    Hook("risk.stamp_tracking", "crowdrisk.pipeline:accumulate_tracking", _count_stamp_tracking),
    Hook("risk.stamp_violations", "crowdrisk.pipeline:accumulate_violations",
         _count_stamp_violations),
    Hook("risk.crowd_step", "crowdrisk.pipeline:crowd_step", _count_crowd),
    Hook("risk.longterm", "crowdrisk.risk:LongTermCrowd.update", _count_longterm),
    Hook("rasters.table_write", "crowdrisk.rasters:write_value_table", _count_bytes),
    Hook("rasters.table_read", "crowdrisk.rasters:read_value_table"),
    Hook("rasters.pgm", "crowdrisk.rasters:write_pgm16", _count_bytes),
    Hook("rasters.ppm", "crowdrisk.rasters:write_heatmap_ppm", _count_bytes),
]

def layer_metrics(tr: Tracer, ingest, summary) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced process, None where a hook target is gone.

    `ingest` and `summary` are the program's own results; their fields are
    read with getattr so a renamed field also gives None.
    """
    def field(obj, name):
        return getattr(obj, name, None)

    def diff(a, b):
        return None if a is None or b is None else a - b

    accepted, rejected = field(ingest, "accepted"), field(ingest, "rejected")
    step = FRAME_SPAN
    m: dict[str, float | int | None] = {
        "detections.parse_s": tr.total("detections.parse"),
        "detections.lines": None if accepted is None or rejected is None else accepted + rejected,
        "detections.rejected": rejected,
        "detections.below_conf": field(summary, "detections_below_confidence"),
        "config.load_s": tr.total("config.load"),
        "tracking.step_self_s": tr.self_time(step),
        "tracking.predict_s": tr.total("tracking.predict"),
        "tracking.predict_calls": tr.calls("tracking.predict"),
        "tracking.update_s": tr.total("tracking.update"),
        "tracking.update_calls": tr.calls("tracking.update"),
        "tracking.associate_self_s": tr.self_time("tracking.associate"),
        "tracking.gate_rejected": diff(
            tr.counter("assignment.raw_matches", ("assignment.solve",)),
            tr.counter("tracking.gated_matches", ("tracking.associate",)),
        ),
        "tracking.spawned": tr.counter("tracking.spawned", (step,)),
        "tracking.removed": tr.counter("tracking.removed", (step,)),
        "tracking.confirmed_out": tr.counter("tracking.confirmed_out", (step,)),
        "assignment.solve_s": tr.total("assignment.solve"),
        "assignment.calls": tr.calls("assignment.solve"),
        "assignment.cells": tr.counter("assignment.cells", ("assignment.solve",)),
        "assignment.max_dim": tr.counter("assignment.max_dim", ("assignment.solve",)),
        "geometry.iou_matrix_s": tr.total("geometry.iou_matrix"),
        "geometry.project_s": tr.total("geometry.project"),
        "geometry.project_calls": tr.calls("geometry.project"),
        "distancing.violations_s": tr.total("distancing.violations"),
        "distancing.couples_s": tr.total("distancing.couples"),
        "distancing.zones_s": tr.total("distancing.zones"),
        "distancing.pairs": tr.counter("distancing.pairs", ("distancing.violations",)),
        "distancing.violation_pairs": tr.counter("distancing.violation_pairs",
                                                 ("distancing.violations",)),
        "risk.stamp_s": tr.total("risk.stamp_tracking", "risk.stamp_violations"),
        "risk.crowd_step_s": tr.total("risk.crowd_step"),
        "risk.longterm_s": tr.total("risk.longterm"),
        "risk.cells_updated": tr.counter("risk.cells_updated",
                                         ("risk.crowd_step", "risk.longterm")),
        "risk.stamps": tr.counter("risk.stamps", ("risk.stamp_tracking",
                                                  "risk.stamp_violations", "risk.crowd_step")),
        "risk.dropped": field(summary, "dropped_stamps"),
        "rasters.table_write_s": tr.total("rasters.table_write"),
        "rasters.table_read_s": tr.total("rasters.table_read"),
        "rasters.pgm_s": tr.total("rasters.pgm"),
        "rasters.ppm_s": tr.total("rasters.ppm"),
        "rasters.bytes_written": tr.counter("rasters.bytes_written",
                                            ("rasters.table_write", "rasters.pgm", "rasters.ppm")),
        "pipeline.run_s": tr.total("pipeline.run"),
        "pipeline.self_s": tr.self_time("pipeline.run"),
        "pipeline.format_s": tr.total("pipeline.format"),
        "pipeline.frames": field(summary, "frames_processed"),
        "pipeline.empty_frames": tr.counter("pipeline.empty_frames", (step,)),
    }
    return m
