"""Config parsing, defaults, exclusivity rules, env overrides."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdrisk.config import (
    _DEFAULTS,
    ConfigError,
    RiskConfig,
    RunConfig,
    TrackerConfig,
    format_homography_block,
    load_config,
)
from crowdrisk.distancing import DistancePolicy

IDENTITY_H = "[homography]\nmatrix = 1 0 0 0 1 0 0 0 1\n"


def write_cfg(tmp_path, body: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


class TestCameraBlocks:
    def test_homography_block(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        run = load_config(cfg, env={})
        assert np.array_equal(run.projection, np.eye(3))

    def test_intrinsics_block(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[intrinsics]\nf = 1\nku = 1\nkv = 1\ncx = 0\ncy = 0\n"
            "theta_deg = 90\nheight_m = 1\n"
            "[policy]\nxi_px_per_m = 10\nr_px = 20\n",
        )
        run = load_config(cfg, env={})
        assert run.projection.shape == (3, 3)
        assert abs(np.linalg.det(run.projection)) > 1e-12

    def test_both_blocks_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            IDENTITY_H + "[intrinsics]\nf = 1\nku = 1\nkv = 1\ncx = 0\ncy = 0\n"
            "theta_deg = 90\nheight_m = 1\n[policy]\nxi_px_per_m = 10\nr_px = 20\n",
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(cfg, env={})

    def test_neither_block_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        with pytest.raises(ConfigError, match="missing both"):
            load_config(cfg, env={})

    def test_singular_tilt_named(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[intrinsics]\nf = 1\nku = 1\nkv = 1\ncx = 0\ncy = 0\n"
            "theta_deg = 0\nheight_m = 1\n[policy]\nxi_px_per_m = 10\nr_px = 20\n",
        )
        with pytest.raises(ConfigError, match="theta_deg"):
            load_config(cfg, env={})

    def test_bad_matrix_length(self, tmp_path):
        cfg = write_cfg(tmp_path, "[homography]\nmatrix = 1 0 0\n"
                                  "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        with pytest.raises(ConfigError, match="matrix"):
            load_config(cfg, env={})


class TestPolicy:
    def test_otc_preset_accepted(self, tmp_path):
        # 10 BEV px per 98 cm, r = 20 px, couples over 5 s
        xi = 10.0 / 0.98
        cfg = write_cfg(
            tmp_path,
            IDENTITY_H
            + f"[policy]\nxi_px_per_m = {xi}\nr_px = 20\ncouple_eps_s = 5\nfps = 25\n",
        )
        run = load_config(cfg, env={})
        assert run.policy.xi == pytest.approx(xi)
        assert run.policy.r == 20.0
        assert run.policy.couple_frames == 125.0

    def test_r_in_meters_converted(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_m = 2\n")
        run = load_config(cfg, env={})
        assert run.policy.r == 20.0

    def test_r_px_and_r_m_exclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\nr_m = 2\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(cfg, env={})

    def test_missing_r_named(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\n")
        with pytest.raises(ConfigError, match="r_px"):
            load_config(cfg, env={})

    def test_out_of_range_value_names_key(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = -1\nr_px = 20\n")
        with pytest.raises(ConfigError, match="xi_px_per_m"):
            load_config(cfg, env={})


class TestDefaults:
    def test_minimal_file_fills_documented_defaults(self, tmp_path):
        cfg = write_cfg(
            tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\nfps = 25\n"
        )
        run = load_config(cfg, env={})
        assert run.policy.couple_d == 1.0
        assert run.policy.couple_eps == 5.0
        assert run.tracker == TrackerConfig(iou_gate=0.3, min_hits=3, max_age=30,
                                            conf_threshold=0.3)
        assert run.risk == RiskConfig(alpha=1.0, beta=0.1, delta=0.5, decay_gamma=0.99,
                                      long_term_smoothing=0.999, cell_scale=1.0,
                                      grid_width=512, grid_height=512)
        assert run.out_dir == "out"
        assert run.couples_enabled is True
        assert run.crowd_map_enabled is True

    def test_fps_defaults_to_25(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        assert load_config(cfg, env={}).policy.fps == 25.0


class TestOverrides:
    def test_env_overrides_file_value(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\nfps = 25\n")
        run = load_config(cfg, env={"CROWDRISK_POLICY_FPS": "30"})
        assert run.policy.fps == 30.0

    def test_env_overrides_default(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        run = load_config(cfg, env={"CROWDRISK_TRACKER_MAX_AGE": "7"})
        assert run.tracker.max_age == 7

    def test_env_values_still_validated(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\n")
        with pytest.raises(ConfigError, match="iou_gate"):
            load_config(cfg, env={"CROWDRISK_TRACKER_IOU_GATE": "1.5"})


class TestHomographyBlock:
    def test_round_trip_through_config(self, tmp_path):
        M = np.array([[2.0, 0.1, 3.0], [0.0, 1.5, -1.0], [1e-3, 0.0, 1.0]])
        cfg = write_cfg(
            tmp_path,
            format_homography_block(M) + "[policy]\nxi_px_per_m = 10\nr_px = 20\n",
        )
        run = load_config(cfg, env={})
        assert np.array_equal(run.projection, M)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.cfg", env={})


class TestLiteralValues:
    @pytest.mark.parametrize("value", ["out%1", "out%(x)s", "out%%"])
    def test_percent_read_verbatim(self, tmp_path, value):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\nr_px = 20\n"
                        f"[output]\ndir = {value}\n")
        assert load_config(cfg, env={}).out_dir == value


POLICY = "[policy]\nxi_px_per_m = 10\nr_px = 20\n"


class TestUnknownKeys:
    @pytest.mark.parametrize("extra,message", [
        ("[tracker]\nmin_hit = 1\n", "[tracker] min_hit: unknown key"),
        ("[riks]\nalpha = 2.0\n", "[riks] alpha: unknown key"),
        ("[DEFAULT]\nfps = 30\n", "[DEFAULT] fps: unknown key"),
        ("[policy_extra]\nr_px = 20\n", "[policy_extra] r_px: unknown key"),
        ("[output]\ndir = out\nfps = 25\n", "[output] fps: unknown key"),
    ])
    def test_rejected_with_section_and_key(self, tmp_path, extra, message):
        cfg = write_cfg(tmp_path, IDENTITY_H + POLICY + extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg, env={})

    def test_unused_camera_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "[homography]\nmatrix = 1 0 0 0 1 0 0 0 1\nskew = 0\n" + POLICY)
        with pytest.raises(ConfigError, match=re.escape("[homography] skew: unknown key")):
            load_config(cfg, env={})

    def test_misspelled_env_variable_ignored(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + POLICY)
        run = load_config(cfg, env={"CROWDRISK_TRACKER_MIN_HIT": "1"})
        assert run.tracker.min_hits == 3


class TestValueErrorsNameKey:
    @pytest.mark.parametrize("env,message", [
        ({"CROWDRISK_POLICY_FPS": "fast"}, "[policy] fps: not a number: 'fast'"),
        ({"CROWDRISK_POLICY_FPS": "inf"}, "[policy] fps: must be finite, got inf"),
        ({"CROWDRISK_TRACKER_MIN_HITS": "2.5"}, "[tracker] min_hits: not an integer: '2.5'"),
        ({"CROWDRISK_RISK_CROWD_MAP_ENABLED": "Maybe"},
         "[risk] crowd_map_enabled: not a boolean: 'maybe'"),
        ({"CROWDRISK_TRACKER_MIN_HITS": "0"}, "[tracker] min_hits: must be >= 1, got 0"),
        ({"CROWDRISK_TRACKER_MAX_AGE": "-1"}, "[tracker] max_age: must be >= 0, got -1"),
        ({"CROWDRISK_TRACKER_CONF_THRESHOLD": "2"},
         "[tracker] conf_threshold: must be in [0, 1], got 2.0"),
        ({"CROWDRISK_RISK_BETA": "-0.1"}, "[risk] beta: must be >= 0, got -0.1"),
        ({"CROWDRISK_RISK_DECAY_GAMMA": "0"}, "[risk] decay_gamma: must be in (0, 1], got 0.0"),
        ({"CROWDRISK_RISK_LONG_TERM_SMOOTHING": "1"},
         "[risk] long_term_smoothing: must be in [0, 1), got 1.0"),
        ({"CROWDRISK_RISK_CELL_SCALE": "0"}, "[risk] cell_scale: must be positive, got 0.0"),
        ({"CROWDRISK_RISK_GRID_HEIGHT": "0"}, "[risk] grid_height: must be >= 1, got 0"),
        ({"CROWDRISK_POLICY_COUPLE_EPS_S": "0"}, "[policy] couple_eps_s: must be positive"),
    ])
    def test_env_value_error(self, tmp_path, env, message):
        cfg = write_cfg(tmp_path, IDENTITY_H + POLICY)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg, env=env)

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nr_px = 20\n")
        with pytest.raises(ConfigError, match=re.escape("missing required key [policy] xi_px_per_m")):
            load_config(cfg, env={})

    def test_dataclass_checks_without_config(self):
        with pytest.raises(ConfigError, match=re.escape("[tracker] iou_gate: must be in [0, 1]")):
            TrackerConfig(iou_gate=1.5)
        with pytest.raises(ConfigError, match=re.escape("[risk] grid_width: must be >= 1")):
            RiskConfig(grid_width=0)

    def test_r_m_overflow_names_r_m(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 1e200\nr_m = 1e200\n")
        with pytest.raises(ConfigError, match=re.escape("[policy] r_m * xi_px_per_m: must be finite")):
            load_config(cfg, env={})

    def test_zero_focal_length_names_block_keys(self, tmp_path):
        cfg = write_cfg(tmp_path, "[intrinsics]\nf = 0\nku = 1\nkv = 1\ncx = 0\ncy = 0\n"
                                  "theta_deg = 35\nheight_m = 1\n" + POLICY)
        with pytest.raises(ConfigError, match=r"^\[intrinsics\] f, ku, kv or height_m: .*singular"):
            load_config(cfg, env={})

    @pytest.mark.parametrize("matrix,message", [
        ("1 0 0 0 x 0 0 0 1", "could not convert string to float: 'x'"),
        ("1 0 0 0 nan 0 0 0 1", "must be finite"),
        ("1 0 0 0 0 0 0 0 1", "is singular"),
    ])
    def test_bad_matrix_entries(self, tmp_path, matrix, message):
        cfg = write_cfg(tmp_path, f"[homography]\nmatrix = {matrix}\n" + POLICY)
        with pytest.raises(ConfigError, match=re.escape(f"[homography] matrix: ") + ".*" +
                           re.escape(message)):
            load_config(cfg, env={})


class TestTypedDefaults:
    def test_defaults_are_typed_dataclass_defaults(self):
        assert _DEFAULTS[("tracker", "min_hits")] == 3
        assert type(_DEFAULTS[("tracker", "min_hits")]) is int
        assert _DEFAULTS[("policy", "couple_d_m")] == DistancePolicy.couple_d
        assert _DEFAULTS[("policy", "couples_enabled")] is True
        assert _DEFAULTS[("output", "dir")] == RunConfig.out_dir
        assert type(_DEFAULTS[("intrinsics", "skew")]) is float
        assert not any(isinstance(v, str) for k, v in _DEFAULTS.items() if k != ("output", "dir"))

    def test_env_selects_r_m(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_H + "[policy]\nxi_px_per_m = 10\n")
        assert load_config(cfg, env={"CROWDRISK_POLICY_R_M": "2"}).policy.r == 20.0
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(cfg, env={"CROWDRISK_POLICY_R_M": "2", "CROWDRISK_POLICY_R_PX": "5"})


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_block() -> str:
    """The fenced ini block of the README's Configuration section."""
    section = README.read_text().split("## Configuration", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def readme_python_blocks() -> list[str]:
    """The README's fenced python blocks, in order."""
    return [part.split("```", 1)[0] for part in README.read_text().split("```python\n")[1:]]


def test_readme_python_blocks_run(tmp_path):
    """Each python block runs on its own against the package sources."""
    blocks = readme_python_blocks()
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"


class TestReadmeExample:
    def test_block_loads(self, tmp_path):
        run = load_config(write_cfg(tmp_path, readme_config_block()), env={})
        assert np.array_equal(run.projection, np.eye(3))
        assert run.policy.r == 20.0

    def test_intrinsics_example_loads_in_place_of_homography(self, tmp_path):
        block = readme_config_block()
        lines = block.splitlines()
        start = lines.index("# [intrinsics]")
        camera = [line[2:] for line in lines[start:] if line.startswith("# ")]
        body = "\n".join(camera + lines[lines.index("[policy]"):]) + "\n"
        assert "[homography]" not in body
        run = load_config(write_cfg(tmp_path, body), env={})
        assert abs(np.linalg.det(run.projection)) > 1e-12

    def test_annotated_defaults_match_code(self):
        section, annotated = None, {}
        for line in readme_config_block().splitlines():
            line = line.removeprefix("# ")
            if line.startswith("["):
                section = line.split("]")[0][1:]
            found = re.match(r"(\w+)\s*=.*#.*\bdefault (\S+)$", line)
            if found:
                annotated[section, found[1]] = found[2].strip('"')
        assert len(annotated) == 19
        for key, text in annotated.items():
            default = _DEFAULTS[key]
            assert default == (text == "true" if type(default) is bool else type(default)(text)), key
