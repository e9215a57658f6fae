"""End-to-end pipeline behavior: artifacts, determinism, accounting."""

from __future__ import annotations

import json
import os

import pytest

import numpy as np

from crowdrisk import pipeline, rasters
from crowdrisk.config import load_config
from crowdrisk.detections import parse_jsonl_detections, parse_mot_detections
from crowdrisk.pipeline import STATS_HEADER, PipelineError, run_pipeline
from crowdrisk.rasters import live_cells, read_value_table, write_value_table
from crowdrisk.risk import LongTermCrowd
from crowdrisk.tracking import Tracker

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DET = os.path.join(DATA_DIR, "synthetic_300.det")
GOLDEN_CFG = os.path.join(DATA_DIR, "synthetic.cfg")


@pytest.fixture()
def config():
    return load_config(GOLDEN_CFG, env={})


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestEmptyInput:
    def test_empty_detections_zero_artifacts(self, config, tmp_path):
        out = str(tmp_path / "out")
        summary = run_pipeline(config, parse_mot_detections([]), out_dir=out)
        assert summary.frames_processed == 0
        assert summary.detections_ingested == 0
        with open(os.path.join(out, "stats.csv")) as fh:
            assert fh.read() == STATS_HEADER + "\n"
        assert read_bytes(os.path.join(out, "tracks.txt")) == b""
        assert read_value_table(os.path.join(out, "tracking_grid.txt")).sum() == 0
        assert read_value_table(os.path.join(out, "violation_grid.txt")).sum() == 0


class TestGoldenSequence:
    def test_byte_identical_across_runs(self, config, tmp_path):
        ingest = parse_mot_detections(GOLDEN_DET)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_pipeline(config, ingest, out_dir=out_a)
        run_pipeline(load_config(GOLDEN_CFG, env={}), ingest, out_dir=out_b)
        for name in (
            "tracks.txt",
            "stats.csv",
            "summary.json",
            "tracking_grid.txt",
            "violation_grid.txt",
            "crowd_grid.txt",
            "longterm_crowd.txt",
            "tracking_grid.pgm",
            "violation_grid.pgm",
            "heatmap.ppm",
        ):
            assert read_bytes(os.path.join(out_a, name)) == read_bytes(
                os.path.join(out_b, name)
            ), f"{name} differs between runs"

    def test_stats_partition_on_every_row(self, config, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(config, parse_mot_detections(GOLDEN_DET), out_dir=out)
        with open(os.path.join(out, "stats.csv")) as fh:
            header = fh.readline().strip()
            assert header == STATS_HEADER
            rows = [line.strip().split(",") for line in fh]
        assert len(rows) == 300
        for row in rows:
            frame, total, red, yellow_pairs, green, new_ids, dead_ids = map(int, row)
            assert total == red + 2 * yellow_pairs + green

    def test_summary_accounting(self, config, tmp_path):
        out = str(tmp_path / "out")
        ingest = parse_mot_detections(GOLDEN_DET)
        summary = run_pipeline(config, ingest, out_dir=out)
        assert summary.detections_ingested == ingest.accepted
        assert summary.detections_rejected == ingest.rejected
        assert summary.tracks_created == 8
        with open(os.path.join(out, "summary.json")) as fh:
            on_disk = json.load(fh)
        assert on_disk["detections_ingested"] == ingest.accepted
        assert on_disk["person_frames"] == summary.person_frames
        assert 0.0 <= on_disk["violation_ratio"] <= 1.0

    def test_couple_pair_goes_yellow(self, config, tmp_path):
        """The bundled scene has one persistent couple; after the 5 s ramp the
        pair must show up as a yellow pair in the stats."""
        out = str(tmp_path / "out")
        run_pipeline(config, parse_mot_detections(GOLDEN_DET), out_dir=out)
        with open(os.path.join(out, "stats.csv")) as fh:
            fh.readline()
            rows = [line.strip().split(",") for line in fh]
        late_yellow = [int(r[3]) for r in rows if int(r[0]) > 140]
        assert max(late_yellow) == 1
        assert sum(1 for y in late_yellow if y == 1) > 100


class TestModeEquivalence:
    def test_track_then_analyze_same_track_file(self, config, tmp_path):
        ingest = parse_mot_detections(GOLDEN_DET)
        out_t = str(tmp_path / "t")
        out_a = str(tmp_path / "a")
        run_pipeline(config, ingest, out_dir=out_t, tracks_only=True)
        run_pipeline(load_config(GOLDEN_CFG, env={}), ingest, out_dir=out_a)
        assert read_bytes(os.path.join(out_t, "tracks.txt")) == read_bytes(
            os.path.join(out_a, "tracks.txt")
        )
        assert not os.path.exists(os.path.join(out_t, "stats.csv"))

    def test_mot_and_jsonl_produce_identical_artifacts(self, config, tmp_path):
        with open(GOLDEN_DET) as fh:
            mot_ingest = parse_mot_detections(fh)
        jsonl_lines = []
        with open(GOLDEN_DET) as fh:
            for line in fh:
                f, _, left, top, w, h, conf, *_ = line.split(",")
                jsonl_lines.append(json.dumps({
                    "frame": int(f),
                    "x": float(left) + float(w) / 2,
                    "y": float(top) + float(h) / 2,
                    "w": float(w), "h": float(h), "conf": float(conf),
                }))
        jsonl_ingest = parse_jsonl_detections(jsonl_lines)
        out_m = str(tmp_path / "m")
        out_j = str(tmp_path / "j")
        run_pipeline(config, mot_ingest, out_dir=out_m)
        run_pipeline(load_config(GOLDEN_CFG, env={}), jsonl_ingest, out_dir=out_j)
        for name in ("tracks.txt", "stats.csv", "tracking_grid.txt", "violation_grid.txt"):
            assert read_bytes(os.path.join(out_m, name)) == read_bytes(
                os.path.join(out_j, name)
            ), f"{name} differs between formats"


class TestToggles:
    def test_couples_off_no_yellow(self, config, tmp_path):
        config.couples_enabled = False
        out = str(tmp_path / "out")
        run_pipeline(config, parse_mot_detections(GOLDEN_DET), out_dir=out)
        with open(os.path.join(out, "stats.csv")) as fh:
            fh.readline()
            for line in fh:
                row = line.strip().split(",")
                assert int(row[3]) == 0  # yellow_pairs
                assert int(row[1]) == int(row[2]) + int(row[4])  # total = red + green

    def test_crowd_off_skips_crowd_artifacts(self, config, tmp_path):
        config.crowd_map_enabled = False
        out = str(tmp_path / "out")
        run_pipeline(config, parse_mot_detections(GOLDEN_DET), out_dir=out)
        assert not os.path.exists(os.path.join(out, "crowd_grid.txt"))
        assert not os.path.exists(os.path.join(out, "crowd_grid.pgm"))
        assert os.path.exists(os.path.join(out, "heatmap.ppm"))


class TestGapsAndErrors:
    def test_frame_gaps_are_processed_as_empty(self, config, tmp_path):
        lines = [
            "1,-1,100,100,30,80,0.9,-1,-1,-1",
            "5,-1,104,100,30,80,0.9,-1,-1,-1",
        ]
        out = str(tmp_path / "out")
        summary = run_pipeline(config, parse_mot_detections(lines), out_dir=out)
        assert summary.frames_processed == 5  # frames 2-4 run with no detections
        with open(os.path.join(out, "stats.csv")) as fh:
            assert len(fh.readlines()) == 6

    def test_idle_gap_grid_calls_bounded(self, config, monkeypatch, tmp_path):
        calls = {"crowd_step": 0, "update": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "crowd_step", counted("crowd_step", pipeline.crowd_step))
        monkeypatch.setattr(LongTermCrowd, "update", counted("update", LongTermCrowd.update))
        gap = 200_000
        frames = [1, 2, 3, 4 + gap]
        lines = [f"{f},-1,{100 + f % 7},100,30,80,0.9,-1,-1,-1" for f in frames]
        out = str(tmp_path / "out")
        summary = run_pipeline(config, parse_mot_detections(lines), out_dir=out)
        assert config.risk.grid_width == config.risk.grid_height == 640
        bound = len(frames) + config.tracker.max_age + 2
        assert 0 < calls["crowd_step"] == calls["update"] <= bound
        assert summary.frames_processed == frames[-1]
        with open(os.path.join(out, "stats.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(1, frames[-1] + 1))
        assert rows[1000] == "1001,0,0,0,0,0,0"

    def test_idle_gaps_match_stepping_every_frame(self, config, monkeypatch, tmp_path):
        lines = []
        for start in (1, 120, 400):  # two people, then gaps longer than max_age
            for f in range(start, start + 12):
                lines.append(f"{f},-1,{100 + 2 * (f - start)},100,30,80,0.9,-1,-1,-1")
                lines.append(f"{f},-1,{100 + 2 * (f - start)},108,30,80,0.9,-1,-1,-1")
        lines.append("300,-1,500,500,30,80,0.1,-1,-1,-1")  # below conf: an empty frame
        ingest = parse_mot_detections(lines)
        run_pipeline(config, ingest, out_dir=str(tmp_path / "skip"))
        monkeypatch.setattr(Tracker, "idle", property(lambda self: False))
        run_pipeline(config, ingest, out_dir=str(tmp_path / "step"))
        for name in ("tracks.txt", "stats.csv", "summary.json", "tracking_grid.txt",
                     "violation_grid.txt", "heatmap.ppm"):
            assert read_bytes(str(tmp_path / "skip" / name)) == read_bytes(
                str(tmp_path / "step" / name)), name
        for name in ("crowd_grid.txt", "longterm_crowd.txt"):
            skip = read_value_table(str(tmp_path / "skip" / name))
            step = read_value_table(str(tmp_path / "step" / name))
            assert skip.max() > 0
            np.testing.assert_allclose(skip, step, rtol=1e-12, atol=0)

    def test_crowd_maps_run_far_from_frame_zero(self, config, tmp_path):
        # the crowd grids count frames from their first one: the maps do not
        # depend on where the stream starts
        for start in (1, 10**30):
            lines = [f"{start + f},-1,{100 + 2 * f},100,30,80,0.9,-1,-1,-1" for f in range(5)]
            summary = run_pipeline(config, parse_mot_detections(lines),
                                   out_dir=str(tmp_path / str(start)))
            assert summary.frames_processed == 5
        for name in ("crowd_grid.txt", "longterm_crowd.txt"):
            assert read_value_table(str(tmp_path / "1" / name)).max() > 0
            assert read_bytes(str(tmp_path / "1" / name)) == read_bytes(
                str(tmp_path / str(10**30) / name)), name

    def test_module_error_is_frame_stamped(self, tmp_path):
        # projection with a horizon row: a foot point at y=10 divides by zero
        cfg_text = (
            "[homography]\nmatrix = 1 0 0 0 1 0 0 1 -10\n"
            "[policy]\nxi_px_per_m = 10\nr_px = 20\n"
            "[tracker]\nmin_hits = 1\n"
        )
        cfg_path = tmp_path / "horizon.cfg"
        cfg_path.write_text(cfg_text)
        config = load_config(str(cfg_path), env={})
        lines = ["1,-1,85,-70,30,80,0.9,-1,-1,-1"]  # foot point (100, 10)
        with pytest.raises(PipelineError, match="frame 1"):
            run_pipeline(config, parse_mot_detections(lines), out_dir=str(tmp_path / "o"))

    def test_below_confidence_detections_filtered(self, config, tmp_path):
        lines = [
            "1,-1,100,100,30,80,0.9,-1,-1,-1",
            "1,-1,300,100,30,80,0.1,-1,-1,-1",  # under the 0.3 default threshold
        ]
        summary = run_pipeline(
            config, parse_mot_detections(lines), out_dir=str(tmp_path / "out")
        )
        assert summary.detections_ingested == 2
        assert summary.detections_below_confidence == 1
        assert summary.detections_processed == 1


class TestGridsMatchDirectAccumulation:
    def test_tracking_grid_mass(self, config, tmp_path):
        """Total grid mass equals 6 * (interior person-frames)."""
        out = str(tmp_path / "out")
        summary = run_pipeline(config, parse_mot_detections(GOLDEN_DET), out_dir=out)
        grid = read_value_table(os.path.join(out, "tracking_grid.txt"))
        assert summary.dropped_stamps == 0
        assert grid.sum() == 6 * summary.person_frames

    @pytest.mark.parametrize("crowd", [True, False])
    def test_dropped_stamps_count_every_layer(self, crowd, tmp_path):
        """Everyone off a 4x4 grid: each grid layer a stamp misses counts once."""
        cfg_path = tmp_path / "small.cfg"
        with open(GOLDEN_CFG) as fh:
            cfg_path.write_text(fh.read().replace("= 640", "= 4"))
        config = load_config(str(cfg_path), env={})
        assert (config.risk.grid_width, config.risk.grid_height) == (4, 4)
        config.crowd_map_enabled = crowd
        summary = run_pipeline(config, parse_mot_detections(GOLDEN_DET),
                               out_dir=str(tmp_path / "out"))
        assert summary.red_person_frames > 0 and summary.yellow_pair_frames > 0
        # tracking grid, presence and (with the crowd map) crowd grid: everyone;
        # red layer: red people; couple layer: both people of each yellow pair
        people = 3 if crowd else 2
        assert summary.dropped_stamps == (
            people * summary.person_frames
            + summary.red_person_frames
            + 2 * summary.yellow_pair_frames
        )

    def test_violation_grid_composition(self, config, tmp_path):
        out = str(tmp_path / "out")
        summary = run_pipeline(config, parse_mot_detections(GOLDEN_DET), out_dir=out)
        combined = read_value_table(os.path.join(out, "violation_grid.txt"))
        # alpha*R + beta*T + delta*Y with all stamps interior
        expected = (
            1.0 * 6 * summary.red_person_frames
            + 0.1 * 6 * summary.person_frames
            + 0.5 * 6 * (2 * summary.yellow_pair_frames)
        )
        assert combined.sum() == pytest.approx(expected, rel=1e-9)


class TestRenderFromTables:
    GRIDS = ("tracking_grid", "violation_grid", "crowd_grid", "longterm_crowd")

    def _tables(self, tmp_path):
        tables = tmp_path / "tables"
        tables.mkdir()
        grid = np.zeros((4, 5))
        grid[1, 2] = 1.0
        for name in self.GRIDS:
            write_value_table(str(tables / f"{name}.txt"), grid, live_cells(grid))
        return tables

    def test_malformed_crowd_table_writes_no_raster(self, tmp_path):
        tables = self._tables(tmp_path)
        (tables / "crowd_grid.txt").write_text("# 4 5\n0 0 0 0 0\n1 2 3\n0 0 0 0 0\n0 0 0 0 0\n")
        out = tmp_path / "re"
        with pytest.raises(ValueError, match=r"crowd_grid\.txt:3: expected 5 values, found 3"):
            pipeline.render_from_tables(str(tables), str(out))
        assert not out.exists() or os.listdir(out) == []

    def test_mismatched_shapes_write_no_raster(self, tmp_path):
        tables = self._tables(tmp_path)
        write_value_table(str(tables / "violation_grid.txt"), np.zeros((5, 4)), np.arange(0))
        out = tmp_path / "re"
        with pytest.raises(ValueError, match="violation_grid"):
            pipeline.render_from_tables(str(tables), str(out))
        assert not out.exists() or os.listdir(out) == []

    def test_mismatched_crowd_table_writes_no_raster(self, tmp_path):
        # one scan gives the cells of every raster, so every table has one shape
        tables = self._tables(tmp_path)
        write_value_table(str(tables / "longterm_crowd.txt"), np.zeros((4, 6)), np.arange(0))
        out = tmp_path / "re"
        with pytest.raises(ValueError, match=r"longterm_crowd\.txt: shape \(4, 6\)"):
            pipeline.render_from_tables(str(tables), str(out))
        assert not out.exists() or os.listdir(out) == []

    def test_renders_every_table(self, tmp_path):
        tables = self._tables(tmp_path)
        written = pipeline.render_from_tables(str(tables), str(tmp_path / "re"))
        assert sorted(os.path.basename(p) for p in written) == sorted(
            ["heatmap.ppm"] + [f"{name}.pgm" for name in self.GRIDS]
        )


def _reached_cells_run(crowd: bool, tmp_path, monkeypatch):
    """Run a scene on a 40x40 grid; return its summary and {table: (values, cells)}.

    A couple (yellow), a close pair (red), a person on the border row
    (clipped kernel) and one off the grid (dropped), then 2,000 frames with
    nobody, at decay_gamma 0.5 (the crowd cells decay to +0.0), then two
    people again.
    """
    cfg = tmp_path / "record.cfg"
    cfg.write_text(
        "[homography]\nmatrix = 1 0 0 0 1 0 0 0 1\n"
        "[policy]\nxi_px_per_m = 10.0\nr_px = 20\nfps = 25.0\ncouple_eps_s = 0.2\n"
        "[tracker]\nmin_hits = 1\n"
        "[risk]\ngrid_width = 40\ngrid_height = 40\ncell_scale = 8\ndecay_gamma = 0.5\n"
        f"crowd_map_enabled = {crowd}\n"
    )
    config = load_config(str(cfg), env={})
    feet = {range(1, 31): [(100, 100), (100, 108), (200, 200), (215, 200), (2, 317), (400, 100)],
            range(2031, 2041): [(2, 317), (160, 160)]}
    lines = [f"{f},-1,{fx - 15},{fy - 80},30,80,0.9,-1,-1,-1"
             for frames, people in feet.items() for f in frames for fx, fy in people]
    tables = {}

    def capture(path, values, cells):
        tables[os.path.basename(path)] = (values.copy(), cells.copy())
        return write_value_table(path, values, cells)

    monkeypatch.setattr(rasters, "write_value_table", capture)
    summary = run_pipeline(config, parse_mot_detections(lines), out_dir=str(tmp_path / "out"))
    return summary, tables


class TestReachedCells:
    """The end of a run reads each grid only on the cells its stamps reached."""

    @pytest.mark.parametrize("crowd", [True, False])
    def test_cells_outside_each_record_are_zero(self, crowd, tmp_path, monkeypatch):
        summary, tables = _reached_cells_run(crowd, tmp_path, monkeypatch)
        assert summary.red_person_frames > 0 and summary.yellow_pair_frames > 0
        assert summary.dropped_stamps > 0
        names = ["tracking_grid.txt", "violation_grid.txt"]
        if crowd:
            names += ["crowd_grid.txt", "longterm_crowd.txt"]
        assert sorted(tables) == sorted(names)
        for name, (values, cells) in tables.items():
            assert np.array_equal(cells, np.unique(cells)), name
            outside = np.ones(values.size, dtype=bool)
            outside[cells] = False
            assert not values.reshape(-1)[outside].view(np.uint64).any(), name
            assert values.reshape(-1)[cells].any(), name
        tracking, violation = tables["tracking_grid.txt"][1], tables["violation_grid.txt"][1]
        assert tracking[-1] // 40 == 39  # the border person's row
        assert np.isin(tracking, violation).all()
        if crowd:
            values, cells = tables["crowd_grid.txt"]
            assert (values.reshape(-1)[cells] == 0).any()  # decayed to +0.0 over the gap

    def test_analyze_makes_no_whole_grid_pass(self, config, monkeypatch, tmp_path):
        assert config.crowd_map_enabled
        ingest = parse_mot_detections(GOLDEN_DET)
        run_pipeline(config, ingest, out_dir=str(tmp_path / "want"))
        scans = []

        def no_scan(*grids):
            raise AssertionError("analyze scanned a whole grid for its live cells")

        monkeypatch.setattr(rasters, "live_cells", no_scan)
        out = str(tmp_path / "got")
        run_pipeline(config, ingest, out_dir=out)
        for name in sorted(os.listdir(out)):
            assert read_bytes(os.path.join(out, name)) == read_bytes(
                str(tmp_path / "want" / name)), name

        def counted(*grids):
            scans.append(len(grids))
            return live_cells(*grids)

        monkeypatch.setattr(rasters, "live_cells", counted)
        written = pipeline.render_from_tables(out, str(tmp_path / "re"))
        assert scans == [4]
        for path in written:
            assert read_bytes(path) == read_bytes(os.path.join(out, os.path.basename(path)))
