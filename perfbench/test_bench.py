"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import sys
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_dense_lanes_reproduces_the_acceptance_stream_generator():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        from synthetic import crowd_stream_lines
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    n = workloads.DENSE_LANES_FRAMES
    expected = crowd_stream_lines(n, lanes=20, seed=12)
    assert workloads.dense_lanes(workloads.DEFAULT_SEED).lines == expected


def test_crowd_jsonl_counts_match_what_ingest_accepts():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from crowdrisk.detections import parse_jsonl_detections

    w = workloads.crowd_jsonl(3)
    ingest = parse_jsonl_detections(w.lines)
    below = sum(1 for _, recs in ingest.frames for r in recs if r.bbox.conf < 0.3)
    assert (ingest.accepted, ingest.rejected, below) == (w.valid, w.non_positive, w.below_conf)
    assert w.below_conf > 0 and w.non_positive > 0


def test_generators_are_seeded():
    for generate in workloads.GENERATORS.values():
        assert generate(5).lines == generate(5).lines
        assert generate(5).lines != generate(6).lines


def test_missing_hook_target_gives_null_metrics():
    module = types.ModuleType("bench_fake_module")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        tracer.install([spans.Hook("fake.present", "bench_fake_module:present"),
                        spans.Hook("fake.gone", "bench_fake_module:gone"),
                        spans.Hook("tracking.predict", "bench_fake_module:Missing.attr")])
        assert module.present(1) == 2
        assert tracer.calls("fake.present") == 1
        assert tracer.total("fake.gone") is None
        metrics = spans.layer_metrics(tracer, None, None)
        assert metrics["tracking.predict_s"] is None
        assert metrics["tracking.predict_calls"] is None
        assert metrics["pipeline.frames"] is None
    finally:
        del sys.modules[module.__name__]


def test_reshaped_call_gives_null_counters():
    module = types.ModuleType("bench_fake_reshaped")
    module.pairwise_violations = lambda: set()  # no positions argument any more
    sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        tracer.install([spans.Hook("distancing.violations",
                                   "bench_fake_reshaped:pairwise_violations",
                                   spans._count_violations)])
        module.pairwise_violations()
        metrics = spans.layer_metrics(tracer, None, None)
        assert metrics["distancing.violations_s"] is not None
        assert metrics["distancing.pairs"] is None
    finally:
        del sys.modules[module.__name__]


def test_self_time_excludes_child_spans():
    module = types.ModuleType("bench_fake_nested")
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: module.inner() + module.inner()
    sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        tracer.install([spans.Hook("a.outer", "bench_fake_nested:outer"),
                        spans.Hook("a.inner", "bench_fake_nested:inner")])
        module.outer()
        outer, inner = tracer.spans["a.outer"], tracer.spans["a.inner"]
        assert inner.calls == 2
        assert abs(outer.self_time - (outer.total - inner.total)) < 1e-9
    finally:
        del sys.modules[module.__name__]


def test_benchmark_json_lists_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    per_layer = list(spans.layer_metrics(spans.Tracer(), None, None))
    per_layer += [f"pipeline.frame_ms.p{p}" for p in run.FRAME_PERCENTILES] + ["trace.overhead"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.GENERATORS)


def test_checks_flag_a_broken_row(tmp_path):
    w = workloads.Workload(name="t", fmt="mot", lines=[], config_text="", grid_shape=(4, 4),
                           first_frame=1, last_frame=1, valid=1, below_conf=0, non_positive=0)
    out, rerender = tmp_path / "out", tmp_path / "rerender"
    out.mkdir()
    rerender.mkdir()
    (out / "stats.csv").write_text("frame,total,red,yellow_pairs,green,new_ids,dead_ids\n"
                                   "1,1,0,0,0,1,0\n")
    summary = {"frames_processed": 1, "detections_ingested": 1, "detections_rejected": 0,
               "detections_below_confidence": 0, "person_frames": 1, "red_person_frames": 0,
               "yellow_pair_frames": 0, "dropped_stamps": 0}
    (out / "summary.json").write_text(json.dumps(summary))
    (out / "tracks.txt").write_text("1,1,0,0,1,1,0.9,-1,-1,-1\n")
    grid = "# 4 4\n0 0 0 0\n0 1 2 0\n0 0 1 0\n0 0 0 0\n"
    for name in checks.TABLES:
        (out / name).write_text(grid)
    problems = checks.check_run(w, 0, str(out), str(rerender), None)
    assert any("total = red + 2*yellow_pairs + green" in p for p in problems)
    assert any("re-rendered rasters" in p for p in problems)
