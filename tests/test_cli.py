"""CLI contract: subcommands, exit codes, artifact emission."""

from __future__ import annotations

import os

import numpy as np
import pytest

from crowdrisk.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DET = os.path.join(DATA_DIR, "synthetic_300.det")
GOLDEN_CFG = os.path.join(DATA_DIR, "synthetic.cfg")


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestAnalyze:
    def test_full_run_emits_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET, "--out", out])
        assert code == 0
        for name in ("tracks.txt", "stats.csv", "summary.json", "heatmap.ppm",
                     "tracking_grid.txt", "violation_grid.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        assert "300 frames" in capsys.readouterr().out

    def test_crowd_off_flag(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET,
                     "--out", out, "--crowd", "off"])
        assert code == 0
        assert not os.path.exists(os.path.join(out, "crowd_grid.txt"))

    def test_couples_off_flag(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET,
                     "--out", out, "--couples", "off"])
        assert code == 0
        with open(os.path.join(out, "stats.csv")) as fh:
            fh.readline()
            assert all(int(line.split(",")[3]) == 0 for line in fh)


class TestTrack:
    def test_track_is_tracks_only(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["track", "--config", GOLDEN_CFG, "--det", GOLDEN_DET, "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "tracks.txt"))
        assert not os.path.exists(os.path.join(out, "stats.csv"))

    def test_track_and_analyze_identical_track_files(self, tmp_path):
        out_t = str(tmp_path / "t")
        out_a = str(tmp_path / "a")
        assert main(["track", "--config", GOLDEN_CFG, "--det", GOLDEN_DET, "--out", out_t]) == 0
        assert main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET, "--out", out_a]) == 0
        assert read_bytes(os.path.join(out_t, "tracks.txt")) == read_bytes(
            os.path.join(out_a, "tracks.txt")
        )


class TestHeatmap:
    def test_rerender_matches_original_rasters(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET, "--out", out]) == 0
        rerender = str(tmp_path / "re")
        assert main(["heatmap", "--tables", out, "--out", rerender]) == 0
        for name in ("tracking_grid.pgm", "violation_grid.pgm", "heatmap.ppm",
                     "crowd_grid.pgm", "longterm_crowd.pgm"):
            assert read_bytes(os.path.join(out, name)) == read_bytes(
                os.path.join(rerender, name)
            ), f"{name} differs after re-render"

    def test_ragged_table_error_names_file_and_line(self, tmp_path, capsys):
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "tracking_grid.txt").write_text("# 2 3\n0 0 0\n1 2 3 4\n")
        (tables / "violation_grid.txt").write_text("# 2 3\n0 0 0\n0 0 0\n")
        code = main(["heatmap", "--tables", str(tables), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{tables / 'tracking_grid.txt'}:3: expected 3 values, found 4" in err
        assert not (tmp_path / "o").exists()

    def test_missing_tables_fail(self, tmp_path, capsys):
        code = main(["heatmap", "--tables", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrate:
    def test_identity_correspondences(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("0 0 0 0\n1 0 1 0\n1 1 1 1\n0 1 0 1\n")
        out = tmp_path / "homography.cfg"
        code = main(["calibrate", "--points", str(points), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("[homography]\n")
        values = [float(x) for x in text.split("=", 1)[1].split()]
        assert np.allclose(np.array(values).reshape(3, 3), np.eye(3), atol=1e-9)

    def test_block_round_trips_through_config(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("0 0 0 0\n1 0 2 0\n1 1 2 2\n0 1 0 2\n# corner comments ok\n")
        out = tmp_path / "homography.cfg"
        assert main(["calibrate", "--points", str(points), "--out", str(out)]) == 0
        cfg = tmp_path / "full.cfg"
        cfg.write_text(out.read_text() + "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        from crowdrisk.config import load_config

        run = load_config(str(cfg), env={})
        assert np.allclose(run.projection, np.diag([2.0, 2.0, 1.0]), atol=1e-9)

    def test_stdout_when_no_out(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("0 0 0 0\n1 0 1 0\n1 1 1 1\n0 1 0 1\n")
        assert main(["calibrate", "--points", str(points)]) == 0
        assert capsys.readouterr().out.startswith("[homography]")

    def test_degenerate_points_fail(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n")
        assert main(["calibrate", "--points", str(points)]) == 1

    @pytest.mark.parametrize("field", ["abc", "nan", "inf"])
    def test_bad_field_error_names_file_and_line(self, field, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text(f"0 0 0 0\n# comment\n1 0 {field} 0\n1 1 1 1\n0 1 0 1\n")
        assert main(["calibrate", "--points", str(points)]) == 1
        assert f"error: {points}:3: " in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET, "--bogus"])
        assert exc.value.code == 2

    def test_missing_det_file_exits_1(self, tmp_path, capsys):
        code = main(["analyze", "--config", GOLDEN_CFG,
                     "--det", str(tmp_path / "none.det"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[policy]\nxi_px_per_m = 10\nr_px = 20\n")  # no camera block
        code = main(["analyze", "--config", str(bad), "--det", GOLDEN_DET,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing both" in capsys.readouterr().err


class TestFpsOverride:
    def test_fps_changes_couple_threshold(self, tmp_path):
        """At fps=5 the couple ramp is 25 frames, so yellow shows up early."""
        out_fast = str(tmp_path / "fast")
        assert main(["analyze", "--config", GOLDEN_CFG, "--det", GOLDEN_DET,
                     "--out", out_fast, "--fps", "5"]) == 0
        with open(os.path.join(out_fast, "stats.csv")) as fh:
            fh.readline()
            early_yellow = [int(line.split(",")[3]) for line in fh][:60]
        assert max(early_yellow) == 1
