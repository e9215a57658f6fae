"""Run configuration: calibration file parsing, defaults, env overrides.

The calibration file is INI-style key-value text.  Exactly one of the
[intrinsics] or [homography] blocks must be present; [policy], [tracker],
[risk], and [output] are optional with documented defaults.  Every key can
be overridden from the environment as CROWDRISK_<SECTION>_<KEY>.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .distancing import DistancePolicy
from .geometry import CameraModel

ENV_PREFIX = "CROWDRISK"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class TrackerConfig:
    iou_gate: float = 0.3
    min_hits: int = 3
    max_age: int = 30
    conf_threshold: float = 0.3


@dataclass(frozen=True)
class RiskConfig:
    alpha: float = 1.0
    beta: float = 0.1
    delta: float = 0.5
    decay_gamma: float = 0.99
    long_term_smoothing: float = 0.999
    cell_scale: float = 1.0
    grid_width: int = 512
    grid_height: int = 512


@dataclass
class RunConfig:
    """Everything one analysis run needs, fully validated."""

    camera: CameraModel
    policy: DistancePolicy
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    out_dir: str = "out"
    couples_enabled: bool = True
    crowd_map_enabled: bool = True

    @property
    def projection(self) -> np.ndarray:
        return self.camera.M


def _field_defaults(section: str, cls, **keys: str) -> dict[tuple[str, str], str]:
    """Defaults of a dataclass's fields as config strings, under key keys[name] or name."""
    return {
        (section, keys.get(f.name, f.name)): str(f.default)
        for f in fields(cls)
        if f.default is not MISSING
    }


_DEFAULTS = {
    ("intrinsics", "skew"): "0.0",
    **_field_defaults("policy", DistancePolicy, couple_d="couple_d_m", couple_eps="couple_eps_s"),
    ("policy", "couples_enabled"): "true",
    **_field_defaults("tracker", TrackerConfig),
    **_field_defaults("risk", RiskConfig),
    ("risk", "crowd_map_enabled"): "true",
    ("output", "dir"): "out",
}

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


class _Reader:
    """Layered lookup: environment override, file value, default."""

    def __init__(self, parser: configparser.ConfigParser, env: dict[str, str]):
        self._parser = parser
        self._env = env

    def raw(self, section: str, key: str) -> str | None:
        env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
        if env_key in self._env:
            return self._env[env_key]
        if self._parser.has_option(section, key):
            return self._parser.get(section, key)
        return _DEFAULTS.get((section, key))

    def has(self, section: str, key: str) -> bool:
        env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
        return env_key in self._env or self._parser.has_option(section, key)

    def _require(self, section: str, key: str) -> str:
        value = self.raw(section, key)
        if value is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return value

    def get_float(self, section: str, key: str) -> float:
        value = self._require(section, key)
        try:
            out = float(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number: {value!r}") from None
        if not math.isfinite(out):
            raise ConfigError(f"[{section}] {key}: must be finite, got {value}")
        return out

    def get_int(self, section: str, key: str) -> int:
        value = self._require(section, key)
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer: {value!r}") from None

    def get_bool(self, section: str, key: str) -> bool:
        value = self._require(section, key).strip().lower()
        if value not in _BOOL:
            raise ConfigError(f"[{section}] {key}: not a boolean: {value!r}")
        return _BOOL[value]

    def get_str(self, section: str, key: str) -> str:
        return self._require(section, key)


def _check(cond: bool, section: str, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"[{section}] {key}: {message}")


def _load_camera(reader: _Reader, parser: configparser.ConfigParser) -> CameraModel:
    has_intr = parser.has_section("intrinsics")
    has_homo = parser.has_section("homography")
    if has_intr and has_homo:
        raise ConfigError("config must contain exactly one of [intrinsics] or [homography]")
    if not has_intr and not has_homo:
        raise ConfigError("config is missing both [intrinsics] and [homography]")

    if has_homo:
        raw = reader.get_str("homography", "matrix")
        parts = raw.split()
        if len(parts) != 9:
            raise ConfigError(f"[homography] matrix: expected 9 numbers, got {len(parts)}")
        try:
            M = np.array([float(x) for x in parts]).reshape(3, 3)
        except ValueError:
            raise ConfigError("[homography] matrix: non-numeric entry") from None
        try:
            return CameraModel.from_matrix(M)
        except ValueError as exc:
            raise ConfigError(f"[homography] matrix: {exc}") from None

    theta_deg = reader.get_float("intrinsics", "theta_deg")
    height = reader.get_float("intrinsics", "height_m")
    _check(height > 0, "intrinsics", "height_m", f"must be positive, got {height}")
    try:
        return CameraModel.from_intrinsics(
            f=reader.get_float("intrinsics", "f"),
            ku=reader.get_float("intrinsics", "ku"),
            kv=reader.get_float("intrinsics", "kv"),
            cx=reader.get_float("intrinsics", "cx"),
            cy=reader.get_float("intrinsics", "cy"),
            theta=math.radians(theta_deg),
            height=height,
            skew=reader.get_float("intrinsics", "skew"),
        )
    except ValueError as exc:
        raise ConfigError(f"[intrinsics] theta_deg: {exc}") from None


def _load_policy(reader: _Reader) -> DistancePolicy:
    xi = reader.get_float("policy", "xi_px_per_m")
    _check(xi > 0, "policy", "xi_px_per_m", f"must be positive, got {xi}")
    if reader.has("policy", "r_px") and reader.has("policy", "r_m"):
        raise ConfigError("[policy] r_px and r_m are mutually exclusive")
    if reader.has("policy", "r_m"):
        r = reader.get_float("policy", "r_m") * xi
    elif reader.has("policy", "r_px"):
        r = reader.get_float("policy", "r_px")
    else:
        raise ConfigError("missing required key [policy] r_px (or r_m)")
    fps = reader.get_float("policy", "fps")
    couple_d = reader.get_float("policy", "couple_d_m")
    couple_eps = reader.get_float("policy", "couple_eps_s")
    for key, value in (("r_px", r), ("fps", fps), ("couple_d_m", couple_d),
                       ("couple_eps_s", couple_eps)):
        _check(value > 0, "policy", key, f"must be positive, got {value}")
    return DistancePolicy(xi=xi, r=r, couple_d=couple_d, couple_eps=couple_eps, fps=fps)


def _load_tracker(reader: _Reader) -> TrackerConfig:
    gate = reader.get_float("tracker", "iou_gate")
    min_hits = reader.get_int("tracker", "min_hits")
    max_age = reader.get_int("tracker", "max_age")
    conf_thr = reader.get_float("tracker", "conf_threshold")
    _check(0.0 <= gate <= 1.0, "tracker", "iou_gate", f"must be in [0, 1], got {gate}")
    _check(min_hits >= 1, "tracker", "min_hits", f"must be >= 1, got {min_hits}")
    _check(max_age >= 0, "tracker", "max_age", f"must be >= 0, got {max_age}")
    _check(0.0 <= conf_thr <= 1.0, "tracker", "conf_threshold",
           f"must be in [0, 1], got {conf_thr}")
    return TrackerConfig(iou_gate=gate, min_hits=min_hits, max_age=max_age,
                         conf_threshold=conf_thr)


def _load_risk(reader: _Reader) -> RiskConfig:
    alpha = reader.get_float("risk", "alpha")
    beta = reader.get_float("risk", "beta")
    delta = reader.get_float("risk", "delta")
    gamma = reader.get_float("risk", "decay_gamma")
    smoothing = reader.get_float("risk", "long_term_smoothing")
    cell_scale = reader.get_float("risk", "cell_scale")
    width = reader.get_int("risk", "grid_width")
    height = reader.get_int("risk", "grid_height")
    for key, value in (("alpha", alpha), ("beta", beta), ("delta", delta)):
        _check(value >= 0, "risk", key, f"must be >= 0, got {value}")
    _check(0.0 < gamma <= 1.0, "risk", "decay_gamma", f"must be in (0, 1], got {gamma}")
    _check(0.0 <= smoothing < 1.0, "risk", "long_term_smoothing",
           f"must be in [0, 1), got {smoothing}")
    _check(cell_scale > 0, "risk", "cell_scale", f"must be positive, got {cell_scale}")
    _check(width >= 1, "risk", "grid_width", f"must be >= 1, got {width}")
    _check(height >= 1, "risk", "grid_height", f"must be >= 1, got {height}")
    return RiskConfig(alpha=alpha, beta=beta, delta=delta, decay_gamma=gamma,
                      long_term_smoothing=smoothing, cell_scale=cell_scale,
                      grid_width=width, grid_height=height)


def load_config(path: str, env: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate a calibration/run file into a RunConfig."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    reader = _Reader(parser, dict(os.environ if env is None else env))
    return RunConfig(
        camera=_load_camera(reader, parser),
        policy=_load_policy(reader),
        tracker=_load_tracker(reader),
        risk=_load_risk(reader),
        out_dir=reader.get_str("output", "dir"),
        couples_enabled=reader.get_bool("policy", "couples_enabled"),
        crowd_map_enabled=reader.get_bool("risk", "crowd_map_enabled"),
    )


def format_homography_block(M: np.ndarray) -> str:
    """Calibration-file [homography] block for an estimated matrix."""
    flat = " ".join(f"{x:.17g}" for x in np.asarray(M, dtype=float).ravel())
    return f"[homography]\nmatrix = {flat}\n"
