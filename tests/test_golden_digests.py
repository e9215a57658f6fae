"""Pinned sha256 digests of the deterministic artifacts of three reference runs.

`test_determinism_golden` only compares two runs of the same code with each
other; these pins also catch a refactor that changes behaviour.  A change
that means to alter an artifact re-pins it here and says which bits moved
and why.

Every run pins its five rasters too: `analyze` and `heatmap` render through
one writer, so comparing the two cannot see a change that moves both.

Runs:
- golden: `data/synthetic_300.det` with `data/synthetic.cfg`;
- dense: `crowd_stream_lines(1000, lanes=20, seed=12)` with
  `scene_config(grid=640)`, the first 1,000 frames of the acceptance stream;
- sparse: `sparse_gap_walkers()` over 180 frames with `scene_config(grid=512)`,
  two bursts of a few people with 60 empty frames between them, so the
  grids are mostly all-zero rows around a few live ones (its stats, tracks
  and summary are not pinned).
"""

from __future__ import annotations

import hashlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from synthetic import (  # noqa: E402
    Walker,
    crowd_stream_lines,
    mot_lines,
    scene_config,
)

from crowdrisk.config import load_config
from crowdrisk.detections import parse_mot_detections
from crowdrisk.pipeline import run_pipeline

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

PINS = {
    "golden": {
        "tracks.txt": "80663fd8a2cc25f877597de63f39c5cf12cd8d6fa798bfd57aeac9fcb1b5e01d",
        "stats.csv": "4f3aa7fa5a9beb8469e199f74b74df1a86a62159fecd52ac35932bce2ae66632",
        "summary.json": "b74958b5f378d04465f44057fc89751b12fc7549d069f49186872999f623731b",
        "tracking_grid.txt": "960d3340b7120c8eee39dc113588b62ffea5f5fa477bf273b9fd343451436bef",
        "violation_grid.txt": "68176c74301f0b2ec285855c608ae076e0bc89fb001f8b58713b6fdea7c5cce8",
        "crowd_grid.txt": "4d50cd939dfff9628ddc9fb771ab5322103f4a2052257b791eb93334692e170a",
        "longterm_crowd.txt": "b6acd2a7b5e2efff064dcd7cf6d26cdbc8df33c2fa45e6b8191332824749dd5f",
        "tracking_grid.pgm": "1dbc9353ac0d17e45d31bc1b01277583ce0007d234fd95a15ec4767bc44b3573",
        "violation_grid.pgm": "56c1eec0006b612997df5b134f930955421f1178f1036b41c2bbfb08e3ca7a20",
        "heatmap.ppm": "6cce11bc2e0b668a34ae7e458c091a2637e57167824eff12f38d895b0ceef8bf",
        "crowd_grid.pgm": "a72b8b24310d39cefe67c82d3db47e1c898b6170afb6d1b81ed5aadcdac42f5b",
        "longterm_crowd.pgm": "10d86e1c82696065b3d3ea8b89b459d8afae37b4ca2fdc60d6aaddaf0868ab1f",
    },
    "dense": {
        "tracks.txt": "57ae9b77009768a2742ca582dd71e849aef9ff898eec1af32f729cd050f3e928",
        "stats.csv": "7754331f034fbc30a1c96a1ba67a50983982ce0b87530b4783f17a91dee72c16",
        "summary.json": "8b89c2c1733c8334505c176b207031016b0ff47583b401cfc6ffaecca8903229",
        "tracking_grid.txt": "4f9ed6329956e8264efa2f5856c3e8dbf860c938e6e843ad01ecd4f6247a4adf",
        "violation_grid.txt": "a181d78d163a7004fc6fe155fb3d17d726748c5460e943e0c6766fb8cf0ce7ac",
        "crowd_grid.txt": "1ababc408ab4c7fc920524d748ba518493b5c268f3ee32fae098b276ec63d448",
        "longterm_crowd.txt": "0e11aba0bc0c32349de2de9eaeb147f1d0cbad0599b36b67e58a405233f3050b",
        "tracking_grid.pgm": "ca3e6b1c5f54acabfba69473a78833859941c866058f95cf8353b55f546222f8",
        "violation_grid.pgm": "ca3e6b1c5f54acabfba69473a78833859941c866058f95cf8353b55f546222f8",
        "heatmap.ppm": "00715ac4f8548ee76a539b5199ebc791e04094c7403e96c19497b3d0399e37fc",
        "crowd_grid.pgm": "62e23a17cec64e13462858bea4af86d9412ec84e8440cf5f986a9e3c7722f1fe",
        "longterm_crowd.pgm": "0ab002d3ae1c3f654332a5ea877cb8c8d7cbbf022c126813d6939b7fad51e8ca",
    },
    "sparse": {
        "tracking_grid.txt": "1b527ee51d12a9a4c77d00273fb9a7d63c85e53253dc2e2e8710fb90d05fb713",
        "violation_grid.txt": "c367c8d8c4611a8b7b47373fc4db67595053a21aec698a01b94073e9a457568d",
        "crowd_grid.txt": "be978c3a183cb6f8d44fe4774a639ab333e4e669d08ddae650e86b628312b3b8",
        "longterm_crowd.txt": "048a012383dac90acf025fa57b9850fc38040774f7ec827ccf0f0174919eb41e",
        "tracking_grid.pgm": "b06d30bca8d5f7925c9e1c4fe73db0897f2ae2e7cd1c693cff64fac174ab92e5",
        "violation_grid.pgm": "90683976a5693df5b7561be29a223a717fa49c4e4e506e68ed356ce87f951dee",
        "heatmap.ppm": "7a338ab9d1c1b30a77ca2fd1a5a9d2fd378e60f930f4dff57b928075b073c2a2",
        "crowd_grid.pgm": "d4118fbe951ac00381dde8c33125b221be6bab05e109cad392101e4518b80989",
        "longterm_crowd.pgm": "ff99bb7dd60d60866bf1222656aa29adf92b29a761b92066ddb397e347e5c0ee",
    },
}


def sparse_gap_walkers() -> list[Walker]:
    """Three people in frames 1-60, none in 61-120, two in 121-180.

    Two of the first burst cross within the safe distance, so the
    violation table has live cells too.
    """
    return [
        Walker(enter=1, leave=60, x0=100, y0=100, vx=1.0, vy=0.5),
        Walker(enter=1, leave=60, x0=130, y0=160, vx=0.5, vy=-0.5),
        Walker(enter=1, leave=60, x0=400, y0=380, vx=-0.6, vy=0.2),
        Walker(enter=121, leave=180, x0=250, y0=40, vx=0.0, vy=1.2),
        Walker(enter=121, leave=180, x0=60, y0=470, vx=1.1, vy=0.0),
    ]


def _run(name: str, tmp_path) -> str:
    out = str(tmp_path / "out")
    if name == "golden":
        config = load_config(os.path.join(DATA_DIR, "synthetic.cfg"), env={})
        ingest = parse_mot_detections(os.path.join(DATA_DIR, "synthetic_300.det"))
    elif name == "sparse":
        cfg_path = tmp_path / "sparse.cfg"
        cfg_path.write_text(scene_config(grid=512))
        config = load_config(str(cfg_path), env={})
        ingest = parse_mot_detections(mot_lines(sparse_gap_walkers(), 180, seed=9))
    else:
        cfg_path = tmp_path / "dense.cfg"
        cfg_path.write_text(scene_config(grid=640))
        config = load_config(str(cfg_path), env={})
        ingest = parse_mot_detections(crowd_stream_lines(1000, lanes=20, seed=12))
    run_pipeline(config, ingest, out_dir=out)
    return out


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_digests(name, tmp_path):
    out = _run(name, tmp_path)
    digests = {}
    for artifact in PINS[name]:
        with open(os.path.join(out, artifact), "rb") as fh:
            digests[artifact] = hashlib.sha256(fh.read()).hexdigest()
    moved = sorted(a for a, pin in PINS[name].items() if digests[a] != pin)
    assert not moved, f"{name} run: digests moved for {moved}"
