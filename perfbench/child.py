"""One measured run of crowdrisk in a fresh process.

    python3 child.py ROOT CONFIG DETECTIONS FORMAT OUT_DIR RERENDER_DIR MODE

Imports crowdrisk from ROOT/src and loads CONFIG.  MODE 0 then ingests
DETECTIONS, runs the pipeline into OUT_DIR (`analyze`) and re-renders the
rasters from its value tables into RERENDER_DIR (`heatmap`).  MODE 1 does the
same with the calls into each layer wrapped first (see spans.py) and adds
per-layer metrics.  MODE heatmap only re-renders the tables already in
OUT_DIR.  The child prints one JSON object with its clocks; the parent turns
them into metrics.
"""

import json
import os
import resource
import statistics
import sys
import time

# the heatmap path takes milliseconds on small grids: repeat it for a steadier median
RERENDER_MAX, RERENDER_SECONDS = 40, 1.0


def rerender(pipeline, out_dir: str, rerender_dir: str) -> dict:
    times: list[float] = []
    while not times or (sum(times) < RERENDER_SECONDS and len(times) < RERENDER_MAX):
        t0 = time.perf_counter()
        pipeline.render_from_tables(out_dir, rerender_dir)
        times.append(time.perf_counter() - t0)
    return {"rerender_s": statistics.median(times), "rerenders": len(times)}


def main(argv: list[str]) -> int:
    root, config_path, det_path, fmt, out_dir, rerender_dir, mode = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import crowdrisk
    from crowdrisk import config, detections, pipeline

    if not os.path.abspath(crowdrisk.__file__).startswith(src + os.sep):
        raise RuntimeError(f"crowdrisk imported from {crowdrisk.__file__}, not {src}")

    tracer = None
    if mode == "1":
        from spans import HOOKS, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(HOOKS)

    run_config = config.load_config(config_path)
    result = {"setup_done": time.monotonic()}
    if mode == "heatmap":
        result.update(rerender(pipeline, out_dir, rerender_dir))
        print(json.dumps(result))
        return 0

    t0 = time.perf_counter()
    ingest = detections.parse_detections(det_path, fmt)
    summary = pipeline.run_pipeline(run_config, ingest, out_dir=out_dir)
    result["analyze_s"] = time.perf_counter() - t0
    result["frames"] = summary.frames_processed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, ingest, summary)
        starts = tracer.frame_starts
        result["frame_ms"] = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]

    result.update(rerender(pipeline, out_dir, rerender_dir))
    if tracer is not None:
        read_s = tracer.total("rasters.table_read")
        result["layers"]["rasters.table_read_s"] = (
            None if read_s is None else read_s / result["rerenders"])

    import numpy

    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
