"""Portable raster and value-table emission for the risk grids.

Grayscale goes out as binary PGM (P5) with 16-bit big-endian samples,
color as binary PPM (P6) with 8-bit samples.  Value tables are plain
whitespace-separated text with a `# rows cols` header so external tools
can re-plot the raw grids.
"""

from __future__ import annotations

import os

import numpy as np

from .risk import normalize


def write_pgm16(path: str, values: np.ndarray) -> None:
    """Write a grid as a 16-bit grayscale raster, normalized to full range.

    A constant grid (including all-zero) writes all-zero samples.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"raster input must be 2-D, got shape {values.shape}")
    scaled = normalize(values, 0.0, 65535.0)
    samples = np.rint(scaled, out=scaled).astype(">u2")
    h, w = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(samples.tobytes())


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as a binary color raster."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("color raster input must be (h, w, 3) uint8")
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


# Cells converted per block: 128 rows of a 2048-wide grid.  The float
# temporaries of one block stay a few MB however large the grid is.
_BLOCK_CELLS = 128 * 2048


def _hue_block_to_rgb(hue_deg: np.ndarray, out: np.ndarray) -> None:
    """Write the uint8 RGB of a 1-D block of hues (degrees) into out (n, 3)."""
    h = hue_deg / 60.0
    sector = np.floor(h).astype(int) % 6
    frac = h - np.floor(h)
    p = np.zeros_like(frac)
    q = 1.0 - frac
    t = frac
    one = np.ones_like(frac)
    # RGB channel values per 60-degree sector of the hue circle.
    for channel, choices in enumerate(([one, q, p, p, t, one],
                                       [t, one, one, q, p, p],
                                       [p, p, t, one, one, q])):
        out[:, channel] = np.rint(np.choose(sector, choices) * 255.0)


def hue_to_rgb(hue_deg: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Convert a hue raster to uint8 RGB at maximum saturation and value.

    Hues are in degrees after multiplying by `scale`.  The raster is
    converted in blocks into one preallocated (..., 3) array.
    """
    hue = np.asarray(hue_deg, dtype=float)
    flat = hue.reshape(-1)
    rgb = np.empty((flat.size, 3), dtype=np.uint8)
    for start in range(0, flat.size, _BLOCK_CELLS):
        block = flat[start:start + _BLOCK_CELLS]
        _hue_block_to_rgb(block * scale, rgb[start:start + len(block)])
    return rgb.reshape(hue.shape + (3,))


def write_heatmap_ppm(path: str, hue: np.ndarray) -> None:
    """Write a risk hue raster (halved hue scale: 0 red .. 120 blue) as RGB."""
    write_ppm(path, hue_to_rgb(hue, scale=2.0))


def write_value_table(path: str, values: np.ndarray) -> None:
    """Dump a matrix as text rows, header `# rows cols`, round-trip exact."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"value table input must be 2-D, got shape {values.shape}")
    rows, cols = values.shape
    # grids are sparse in distinct values (mostly zeros); format each once
    uniq, inverse = np.unique(values.ravel(), return_inverse=True)
    lut = np.array([f"{x:.17g}" for x in uniq], dtype=object)
    cells = lut[inverse]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(cells[r * cols:(r + 1) * cols]))
            fh.write("\n")


def read_value_table(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "#":
            raise ValueError(f"{os.path.basename(path)}: missing `# rows cols` header")
        rows, cols = int(header[1]), int(header[2])
        values = np.loadtxt(fh, dtype=float, ndmin=2)
    if values.shape != (rows, cols):
        raise ValueError(
            f"{os.path.basename(path)}: header says {rows}x{cols}, data is {values.shape}"
        )
    return values
