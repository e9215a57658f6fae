"""Output checks for one benchmark run; any problem found counts the run as failed.

For every seed the checks test invariants that follow from the generated
input alone: head counts, ingest accounting, row arithmetic, and the sums of
the value tables, which the stamp kernel (mass 6) and the crowd recurrences
fix exactly because every stamp lands inside the grid.  At the default seed
they also compare against pins in expected.json: sha256 digests of
stats.csv, tracks.txt and summary.json, and each value table's sum and max
within REL_TOL, so last-bit changes in the table values do not fail a run.
Re-rendered rasters must be byte-identical to the ones `analyze` wrote.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from workloads import Workload

REL_TOL = 1e-6
KERNEL_MASS = 6.0
# risk defaults the workload configs leave unset
ALPHA, BETA, DELTA = 1.0, 0.1, 0.5
DECAY_GAMMA, LONG_TERM_SMOOTHING = 0.99, 0.999
TABLES = ("tracking_grid.txt", "violation_grid.txt", "crowd_grid.txt", "longterm_crowd.txt")
RASTERS = ("tracking_grid.pgm", "violation_grid.pgm", "heatmap.ppm",
           "crowd_grid.pgm", "longterm_crowd.pgm")
DIGESTED = ("stats.csv", "tracks.txt", "summary.json")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_digests(path: str) -> dict[str, str]:
    return {name: sha256(os.path.join(path, name)) for name in sorted(os.listdir(path))}


def read_table(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "#":
            raise ValueError(f"{os.path.basename(path)}: bad header {header}")
        values = np.loadtxt(fh, dtype=float, ndmin=2)
    if values.shape != (int(header[1]), int(header[2])):
        raise ValueError(f"{os.path.basename(path)}: header {header[1:]} vs data {values.shape}")
    return values


def table_stats(out_dir: str) -> dict[str, dict]:
    stats = {}
    for name in TABLES:
        values = read_table(os.path.join(out_dir, name))
        stats[name] = {"shape": list(values.shape), "sum": float(values.sum()),
                       "max": float(values.max()), "min": float(values.min())}
    return stats


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def expected_sums(rows: list[list[int]], summary: dict) -> dict[str, float]:
    """Table sums implied by the per-frame counts, every stamp inside the grid."""
    crowd = long_term = 0.0
    for row in rows:  # frame, total, red, yellow_pairs, green, new_ids, dead_ids
        crowd = DECAY_GAMMA * crowd + KERNEL_MASS * row[1]
        long_term = LONG_TERM_SMOOTHING * long_term + (1.0 - LONG_TERM_SMOOTHING) * crowd
    return {
        "tracking_grid.txt": KERNEL_MASS * summary["person_frames"],
        "violation_grid.txt": KERNEL_MASS * (
            ALPHA * summary["red_person_frames"] + BETA * summary["person_frames"]
            + DELTA * 2 * summary["yellow_pair_frames"]),
        "crowd_grid.txt": crowd,
        "longterm_crowd.txt": long_term,
    }


def check_run(w: Workload, seed: int, out_dir: str, rerender_dir: str,
              expected: dict | None) -> list[str]:
    """Problems found in one run's artifacts; empty when the run is correct."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "summary.json"), encoding="ascii") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "stats.csv"), encoding="ascii") as fh:
        lines = fh.read().splitlines()
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]

    def want(what: str, got, exp) -> None:
        if got != exp:
            problems.append(f"{what}: got {got}, expected {exp}")

    want("stats rows", len(rows), summary["frames_processed"])
    want("frames_processed", summary["frames_processed"], w.last_frame - w.first_frame + 1)
    want("stats frames are consecutive from the first detection",
         [r[0] for r in rows] == list(range(w.first_frame, w.last_frame + 1)), True)
    bad = [r[0] for r in rows if r[1] != r[2] + 2 * r[3] + r[4]]
    want("frames breaking total = red + 2*yellow_pairs + green", bad, [])
    want("detections_ingested", summary["detections_ingested"], w.valid)
    want("detections_rejected", summary["detections_rejected"], w.non_positive)
    want("detections_below_confidence", summary["detections_below_confidence"], w.below_conf)
    want("person_frames", summary["person_frames"], sum(r[1] for r in rows))
    want("red_person_frames", summary["red_person_frames"], sum(r[2] for r in rows))
    want("yellow_pair_frames", summary["yellow_pair_frames"], sum(r[3] for r in rows))
    want("dropped_stamps", summary["dropped_stamps"], 0)
    with open(os.path.join(out_dir, "tracks.txt"), "rb") as fh:
        want("tracks.txt lines", sum(1 for _ in fh), summary["person_frames"])

    stats = table_stats(out_dir)
    sums = expected_sums(rows, summary)
    for name, st in stats.items():
        want(f"{name} shape", st["shape"], list(w.grid_shape))
        if not _close(st["sum"], sums[name]):
            problems.append(f"{name} sum {st['sum']!r} != {sums[name]!r} (rel tol {REL_TOL})")
        if st["min"] < 0 or not (0 < st["max"] <= st["sum"]):
            problems.append(f"{name}: min {st['min']!r}, max {st['max']!r}, sum {st['sum']!r}")

    want("re-rendered rasters", sorted(os.listdir(rerender_dir)), sorted(RASTERS))
    for name in RASTERS:
        a, b = os.path.join(out_dir, name), os.path.join(rerender_dir, name)
        if os.path.exists(b) and sha256(a) != sha256(b):
            problems.append(f"re-rendered {name} differs from the analyze raster")

    if expected is not None and expected.get("seed") == seed:
        for name in DIGESTED:
            want(f"{name} sha256", sha256(os.path.join(out_dir, name)), expected[name])
        for name, pin in expected["tables"].items():
            for key in ("sum", "max"):
                if not _close(stats[name][key], pin[key]):
                    problems.append(f"{name} {key} {stats[name][key]!r} != pinned {pin[key]!r}")
    return problems


def pins(seed: int, out_dir: str) -> dict:
    """The expected.json entry for one workload, from a run at its default seed."""
    tables = {name: {"sum": st["sum"], "max": st["max"]}
              for name, st in table_stats(out_dir).items()}
    entry = {"seed": seed, "tables": tables}
    entry.update({name: sha256(os.path.join(out_dir, name)) for name in DIGESTED})
    return entry


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]
