"""Run configuration: calibration file parsing, defaults, env overrides.

The calibration file is INI-style key-value text.  Exactly one of the
[intrinsics] or [homography] blocks must be present; [policy], [tracker],
[risk], and [output] are optional with documented defaults.  Every key can
be overridden from the environment as CROWDRISK_<SECTION>_<KEY>.

Each key takes one path to its value: the environment, else the file, else
its default in `_DEFAULTS`, which holds the defaults of the dataclass fields
the key fills.  A value is parsed as the type of that default and then
range-checked.  A file key that nothing reads is an error; an environment
variable is only looked up, so an unknown one is not.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .distancing import DistancePolicy
from .geometry import SingularTiltError, build_projection, projection_matrix

ENV_PREFIX = "CROWDRISK"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _check(cond: bool, section: str, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"[{section}] {key}: {message}")


@dataclass(frozen=True)
class TrackerConfig:
    iou_gate: float = 0.3
    min_hits: int = 3
    max_age: int = 30
    conf_threshold: float = 0.3

    def __post_init__(self) -> None:
        for key, ok, rule in (("iou_gate", 0.0 <= self.iou_gate <= 1.0, "in [0, 1]"),
                              ("min_hits", self.min_hits >= 1, ">= 1"),
                              ("max_age", self.max_age >= 0, ">= 0"),
                              ("conf_threshold", 0.0 <= self.conf_threshold <= 1.0, "in [0, 1]")):
            _check(ok, "tracker", key, f"must be {rule}, got {getattr(self, key)}")


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

    def __post_init__(self) -> None:
        for key, ok, rule in (("alpha", self.alpha >= 0, ">= 0"),
                              ("beta", self.beta >= 0, ">= 0"),
                              ("delta", self.delta >= 0, ">= 0"),
                              ("decay_gamma", 0.0 < self.decay_gamma <= 1.0, "in (0, 1]"),
                              ("long_term_smoothing", 0.0 <= self.long_term_smoothing < 1.0,
                               "in [0, 1)"),
                              ("cell_scale", self.cell_scale > 0, "positive"),
                              ("grid_width", self.grid_width >= 1, ">= 1"),
                              ("grid_height", self.grid_height >= 1, ">= 1")):
            _check(ok, "risk", key, f"must be {rule}, got {getattr(self, key)}")


@dataclass
class RunConfig:
    """Everything one analysis run needs, fully validated."""

    projection: np.ndarray  # 3x3 pixel-to-ground matrix
    policy: DistancePolicy
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    out_dir: str = "out"
    couples_enabled: bool = True
    crowd_map_enabled: bool = True


# The config key of each dataclass field that has one and a default.
_KEYS = {
    (DistancePolicy, "fps"): ("policy", "fps"),
    (DistancePolicy, "couple_d"): ("policy", "couple_d_m"),
    (DistancePolicy, "couple_eps"): ("policy", "couple_eps_s"),
    (RunConfig, "couples_enabled"): ("policy", "couples_enabled"),
    **{(cls, f.name): (section, f.name)
       for section, cls in (("tracker", TrackerConfig), ("risk", RiskConfig)) for f in fields(cls)},
    (RunConfig, "crowd_map_enabled"): ("risk", "crowd_map_enabled"),
    (RunConfig, "out_dir"): ("output", "dir"),
}

_DEFAULTS = {key: getattr(cls, name) for (cls, name), key in _KEYS.items()}
_DEFAULTS["intrinsics", "skew"] = 0.0


class _Reader:
    """Layered lookup (environment, file, default) that records each key it is asked."""

    def __init__(self, parser: configparser.ConfigParser, env: dict[str, str]):
        self._parser = parser
        self._env = env
        self.asked: set[tuple[str, str]] = set()

    def _raw(self, section: str, key: str) -> str | None:
        self.asked.add((section, key))
        env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
        if env_key in self._env:
            return self._env[env_key]
        return self._parser.get(section, key, fallback=None)

    def has(self, section: str, key: str) -> bool:
        return self._raw(section, key) is not None

    def get(self, section: str, key: str, kind: type):
        """[section] key as a checked float, int, bool or str."""
        value = self._raw(section, key)
        if value is None:
            if (section, key) not in _DEFAULTS:
                raise ConfigError(f"missing required key [{section}] {key}")
            return _DEFAULTS[section, key]
        if kind is str:
            return value
        if kind is bool:
            word = value.strip().lower()
            _check(word in self._parser.BOOLEAN_STATES, section, key, f"not a boolean: {word!r}")
            return self._parser.BOOLEAN_STATES[word]
        try:
            out = kind(value)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"[{section}] {key}: not {what}: {value!r}") from None
        _check(kind is int or math.isfinite(out), section, key, f"must be finite, got {value}")
        return out

    def fields(self, cls) -> dict:
        """The fields of `cls` that `_KEYS` names, each typed as its default."""
        return {name: self.get(*key, type(_DEFAULTS[key]))
                for (owner, name), key in _KEYS.items() if owner is cls}


def _load_projection(reader: _Reader, parser: configparser.ConfigParser) -> np.ndarray:
    has_intr = parser.has_section("intrinsics")
    has_homo = parser.has_section("homography")
    if has_intr and has_homo:
        raise ConfigError("config must contain exactly one of [intrinsics] or [homography]")
    if not has_intr and not has_homo:
        raise ConfigError("config is missing both [intrinsics] and [homography]")

    if has_homo:
        parts = reader.get("homography", "matrix", str).split()
        if len(parts) != 9:
            raise ConfigError(f"[homography] matrix: expected 9 numbers, got {len(parts)}")
        try:
            return projection_matrix(np.array(parts, dtype=float).reshape(3, 3))
        except ValueError as exc:
            raise ConfigError(f"[homography] matrix: {exc}") from None

    f, ku, kv, cx, cy, theta_deg, height, skew = (
        reader.get("intrinsics", key, float)
        for key in ("f", "ku", "kv", "cx", "cy", "theta_deg", "height_m", "skew"))
    _check(height > 0, "intrinsics", "height_m", f"must be positive, got {height}")
    try:
        return build_projection(f, ku, kv, cx, cy, math.radians(theta_deg), height, skew)
    except SingularTiltError as exc:
        raise ConfigError(f"[intrinsics] theta_deg: {exc}") from None
    except ValueError as exc:  # det M is -(f^2 ku kv height_m) / sin(theta)
        raise ConfigError(f"[intrinsics] f, ku, kv or height_m: {exc}") from None


def _load_policy(reader: _Reader) -> DistancePolicy:
    xi = reader.get("policy", "xi_px_per_m", float)
    _check(xi > 0, "policy", "xi_px_per_m", f"must be positive, got {xi}")
    if reader.has("policy", "r_px") and reader.has("policy", "r_m"):
        raise ConfigError("[policy] r_px and r_m are mutually exclusive")
    if reader.has("policy", "r_m"):
        r_key, r = "r_m * xi_px_per_m", reader.get("policy", "r_m", float) * xi
    elif reader.has("policy", "r_px"):
        r_key, r = "r_px", reader.get("policy", "r_px", float)
    else:
        raise ConfigError("missing required key [policy] r_px (or r_m)")
    values = {"r": r, **reader.fields(DistancePolicy)}
    for name, value in values.items():
        key = r_key if name == "r" else _KEYS[DistancePolicy, name][1]
        _check(value > 0, "policy", key, f"must be positive, got {value}")
        _check(math.isfinite(value), "policy", key, f"must be finite, got {value}")
    return DistancePolicy(xi=xi, **values)


def load_config(path: str, env: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate a calibration/run file into a RunConfig."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    reader = _Reader(parser, dict(os.environ if env is None else env))
    config = RunConfig(
        projection=_load_projection(reader, parser),
        policy=_load_policy(reader),
        tracker=TrackerConfig(**reader.fields(TrackerConfig)),
        risk=RiskConfig(**reader.fields(RiskConfig)),
        **reader.fields(RunConfig),
    )
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            _check((section, key) in reader.asked, section, key, "unknown key")
    return config


def format_homography_block(M: np.ndarray) -> str:
    """Calibration-file [homography] block for an estimated matrix."""
    flat = " ".join(f"{x:.17g}" for x in np.asarray(M, dtype=float).ravel())
    return f"[homography]\nmatrix = {flat}\n"
