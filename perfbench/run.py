"""crowdrisk benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload dense-lanes --seed 12 --seconds 30 --trace 0

Generates the workload's detection file and config from the seed, then runs
fresh child processes (child.py) one after another for about `--seconds`
seconds.  Each child imports crowdrisk from ./src, runs `analyze` and then
`heatmap` on the generated input; this process checks every child's
artifacts (checks.py).  The load is closed-loop and batch: the whole
detection file exists before a child starts, and one single-threaded child
runs at a time.

--trace 0 reports the end-to-end metrics, medians over the untraced children
(analyze runs, and heatmap-only children between them).
--trace 1 alternates untraced and traced children and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Every child process
counts as attempted; one fails if it exits non-zero, times out, or its
artifacts fail the checks.

Tables go to stdout; the last stdout line is the JSON result.  The full
record, with the environment and every child's numbers, is written to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from workloads import GENERATORS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")
THREAD_VARS = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
TIME_LIMIT_S = 160  # no child outlives this many seconds of measuring, even when one hangs
MIN_CHILDREN = 2
HEATMAP_PROBES = 2
FRAME_PERCENTILES = (50, 95)
E2E_UNITS = {"fps": "frames/s", "setup_s": "s", "peak_rss_mb": "MB", "rerender_s": "s"}


class ChildFailed(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.startswith("pipeline.frame_ms."):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "rasters.bytes_written":
        return "bytes"
    if name in ("trace.overhead", "error_rate"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    """The caller's environment without config overrides, threads pinned to 1."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CROWDRISK_") and k != "PYTHONPATH"}
    env.update(THREAD_VARS)
    return env


def run_child(args: list[str], timeout: float) -> dict:
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, ROOT, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=child_env())
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        raise ChildFailed(f"exit code {proc.returncode}: {tail[0]}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed("exit code 0 but no result printed")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("setup_done") - t_spawn
    result["wall_s"] = time.monotonic() - t_spawn
    if "analyze_s" in result:
        result["fps"] = result["frames"] / result["analyze_s"]
    return result


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_inputs(w: Workload, work: str) -> list[str]:
    det = os.path.join(work, f"detections.{w.fmt}")
    cfg = os.path.join(work, "run.cfg")
    with open(det, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(w.lines) + "\n")
    with open(cfg, "w", encoding="ascii", newline="\n") as fh:
        fh.write(w.config_text)
    return [cfg, det, w.fmt]


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> list[dict]:
    """Run children until the time is used; each record holds its result or its problems.

    Untraced runs are each followed by up to HEATMAP_PROBES children, while
    the time lasts, that only load the config and re-render the run's tables:
    more samples of set-up and of the heatmap path, spread over the run.
    """
    inputs = write_inputs(w, work)
    expected = checks.load_expected(w.name)
    flags = itertools.cycle("01") if trace else itertools.repeat("0")
    runs: list[dict] = []
    reference = None
    t_start = time.monotonic()

    def time_left() -> float:
        return t_start + TIME_LIMIT_S - time.monotonic()

    last_wall = 0.0
    for k in itertools.count():
        # start another round only if it is expected to end less than half a round late
        if k >= MIN_CHILDREN and time.monotonic() - t_start + last_wall / 2 > seconds:
            break
        if time_left() <= 0:
            break
        flag = next(flags)
        run_dir = os.path.join(work, f"run{k}")
        out, rerender = os.path.join(run_dir, "out"), os.path.join(run_dir, "rerender")
        record: dict = {"mode": flag, "problems": []}
        t_child = time.monotonic()
        try:
            record.update(run_child([*inputs, out, rerender, flag], time_left()))
            digests = (checks.dir_digests(out), checks.dir_digests(rerender))
            if reference is None:
                record["problems"] = checks.check_run(w, seed, out, rerender, expected)
                if not record["problems"]:
                    reference = digests
            elif digests != reference:
                record["problems"] = ["artifacts differ from the first run of this seed"]
        except (ChildFailed, OSError, ValueError, KeyError) as exc:
            record["problems"] = [f"{type(exc).__name__}: {exc}"]
        runs.append(record)
        for i in range(0 if trace or record["problems"] else HEATMAP_PROBES):
            if time.monotonic() - t_start > seconds or time_left() <= 0:
                break
            probe_dir = os.path.join(run_dir, f"probe{i}")
            probe: dict = {"mode": "heatmap", "problems": []}
            try:
                probe.update(run_child([inputs[0], "-", "-", out, probe_dir, "heatmap"],
                                       time_left()))
                if checks.dir_digests(probe_dir) != digests[1]:
                    probe["problems"] = ["re-rendered rasters differ from the first rerender"]
            except (ChildFailed, OSError, ValueError, KeyError) as exc:
                probe["problems"] = [f"{type(exc).__name__}: {exc}"]
            runs.append(probe)
        shutil.rmtree(run_dir, ignore_errors=True)
        last_wall = time.monotonic() - t_child
    return runs


def median_or_none(values: list) -> float | None:
    return None if not values or any(v is None for v in values) else statistics.median(values)


def end_to_end(runs: list[dict]) -> dict[str, float] | None:
    """Medians over the untraced children that finished, whether or not their checks passed."""
    ok = [r for r in runs if r["mode"] != "1" and "setup_s" in r]
    analyze = [r for r in ok if r["mode"] == "0"]
    if not analyze:
        return None
    return {
        "fps": statistics.median(r["fps"] for r in analyze),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in analyze),
        "rerender_s": statistics.median(r["rerender_s"] for r in ok),
    }


def per_layer(runs: list[dict], untraced_fps: float) -> dict[str, float | None] | None:
    traced = [r for r in runs if r["mode"] == "1" and "layers" in r]
    if not traced:
        return None
    metrics = {name: median_or_none([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
    frame_ms = [ms for r in traced for ms in r["frame_ms"]]
    for p in FRAME_PERCENTILES:
        metrics[f"pipeline.frame_ms.p{p}"] = float(np.percentile(frame_ms, p)) if frame_ms else None
    traced_fps = statistics.median(r["fps"] for r in traced)
    metrics["trace.overhead"] = 1.0 - traced_fps / untraced_fps
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def table(title: str, metrics: dict) -> list[str]:
    lines = [title, f"{'metric':<28} {'value':>13}  unit"]
    lines += [f"{name:<28} {_fmt(v):>13}  {unit_of(name)}" for name, v in metrics.items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crowdrisk", "__init__.py")):
        print(f"error: no crowdrisk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    trace = args.trace == "1"
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        runs = measure(GENERATORS[args.workload](args.seed), args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runs if r["problems"])
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"child {i} (mode {r['mode']}): FAILED: {problem}")
    e2e = end_to_end(runs)
    layers = per_layer(runs, e2e["fps"]) if trace and e2e else None
    if e2e is None or (trace and layers is None):
        print("error: no child run finished", file=sys.stderr)
        return 1

    numpy_version = next((r["numpy"] for r in runs if "numpy" in r), None)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "platform": platform.platform(), "commit": git_commit(), "threads": THREAD_VARS,
    }
    modes = collections.Counter(r["mode"] for r in runs)
    print("environment: " + json.dumps(env, sort_keys=True))
    left = table(f"end-to-end: {modes['0']} analyze runs, {modes['heatmap']} heatmap-only",
                 {**e2e, "error_rate": failed / len(runs)})
    if layers is None:
        print("\n".join(left))
    else:
        right = table(f"per-layer: median of {modes['1']} traced runs", layers)
        width = max(len(line) for line in left) + 4
        for a, b in itertools.zip_longest(left, right, fillvalue=""):
            print(f"{a:<{width}}{b}")

    reported = layers if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in reported.items()},
    }
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    record_path = os.path.join(
        WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        raw = [{k: v for k, v in r.items() if k != "frame_ms"} for r in runs]
        json.dump({"environment": env, "end_to_end": e2e, "per_layer": layers,
                   "error_rate": failed / len(runs), "runs": raw}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind through the finally blocks that kill the child and remove scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
