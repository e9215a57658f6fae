"""Portable raster and value-table emission for the risk grids.

Grayscale goes out as binary PGM (P5) with 16-bit big-endian samples,
color as binary PPM (P6) with 8-bit samples.  Value tables are plain
whitespace-separated text with a `# rows cols` header so external tools
can re-plot the raw grids: one line per grid row, each cell as its own
`.17g` text (round-trip exact, signed zero included).  The risk grids are
mostly all-zero rows, so writing and reading a table cost what its
non-zero rows cost: an all-zero row is one cached `0 0 ... 0` line, and only
the other rows are formatted or parsed.
"""

from __future__ import annotations

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


def _zero_row(cols: int) -> str:
    """The text of an all-zero table row: `0 0 ... 0` and a newline."""
    return " ".join("0" * cols) + "\n"


# Runs of zero rows go out in writes of at most this many bytes.  Every
# temporary of the writer stays below glibc's initial mmap threshold
# (128 KiB): freeing a multi-MB temporary would raise that threshold, the
# rasters' later multi-MB arrays would then stay resident on the heap after
# they are freed, and the run's peak memory would grow by an amount that
# follows where the live rows fall.
_ZERO_BLOCK_BYTES = 64 * 1024


def _write_zero_rows(fh, block: memoryview, width: int, n: int) -> None:
    """Write n all-zero rows of `width` bytes each from a block of them."""
    per_block = len(block) // width
    for _ in range(n // per_block):
        fh.write(block)
    fh.write(block[:(n % per_block) * width])


def write_value_table(path: str, values: np.ndarray) -> None:
    """Dump a matrix as text rows, header `# rows cols`, round-trip exact.

    Every cell is written as its own `.17g` text, `-0` included.  Only the
    rows and cells that are not +0.0 are formatted: an all-zero row is one
    cached string, and a live row splices its cell texts between slices of
    that string, so the cost follows the non-zero cells, not the grid.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"value table input must be 2-D, got shape {values.shape}")
    rows, cols = values.shape
    zero_row = _zero_row(cols).encode("ascii")
    zero_block = memoryview(zero_row * max(1, _ZERO_BLOCK_BYTES // len(zero_row)))
    # +0.0 is the only value whose bits are all zero; -0.0 is written as `-0`
    bits = np.ascontiguousarray(values).view(np.uint64)
    live_rows = np.flatnonzero(bits.any(axis=1)).tolist()
    # the live cells row by row: small arrays, never a copy of the live rows
    live_cols = [np.flatnonzero(bits[row]) for row in live_rows]
    cells = [values[row, c] for row, c in zip(live_rows, live_cols)]
    uniq, inverse = np.unique(np.concatenate([np.zeros(0), *cells]), return_inverse=True)
    texts = [f"{x:.17g}".encode("ascii") for x in uniq.tolist()]
    with open(path, "wb") as fh:
        fh.write(f"# {rows} {cols}\n".encode("ascii"))
        next_row = 0
        first = 0
        for row, c in zip(live_rows, live_cols):
            _write_zero_rows(fh, zero_block, len(zero_row), row - next_row)
            # each cell's `0` sits at byte 2 * col of the zero row
            parts = []
            at = 0
            for col, k in zip(c.tolist(), inverse[first:first + len(c)].tolist()):
                parts += (zero_row[at:2 * col], texts[k])
                at = 2 * col + 1
            parts.append(zero_row[at:])
            fh.write(b"".join(parts))
            first += len(c)
            next_row = row + 1
        _write_zero_rows(fh, zero_block, len(zero_row), rows - next_row)


def _bad_table(path: str, lines: list[str], candidates, cols: int) -> ValueError:
    """The error for data lines that do not hold `cols` numbers each.

    Names the file and the 1-based line number of the first bad line among
    `candidates` (indices into `lines`, which start at file line 2).
    """
    for i in candidates:
        tokens = lines[i].split()
        if len(tokens) != cols:
            return ValueError(f"{path}:{i + 2}: expected {cols} values, found {len(tokens)}")
        for col, token in enumerate(tokens, 1):
            try:
                float(token.replace("_", "!"))  # loadtxt, unlike float(), rejects `1_0`
            except ValueError:
                return ValueError(f"{path}:{i + 2}: value {col} is not a number: {token!r}")
    return ValueError(f"{path}: rows are not {cols} numbers each")


def read_value_table(path: str) -> np.ndarray:
    """Read a table written by `write_value_table`.

    Lines equal to the all-zero row stay zeros; only the others are
    parsed.  A malformed table raises ValueError naming the file and line.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not an ASCII value table ({exc.reason})") from None
    if len(header) != 3 or header[0] != "#" or not all(h.isdigit() for h in header[1:]):
        raise ValueError(f"{path}:1: missing `# rows cols` header")
    rows, cols = int(header[1]), int(header[2])
    if len(lines) != rows:
        raise ValueError(
            f"{path}:{min(len(lines), rows) + 2}: header says {rows} rows, file has {len(lines)}"
        )
    if not rows:
        return np.zeros((0, cols))
    # a line shorter than this cannot hold `cols` values; checked before
    # `cols` sizes the zero row, so the header cannot ask for a huge one
    if max(map(len, lines)) < 2 * cols - 1:
        raise _bad_table(path, lines, range(rows), cols)
    zero_row = _zero_row(cols)
    live = [i for i, line in enumerate(lines) if line != zero_row]
    parsed = np.zeros((0, cols))
    if live:
        try:
            parsed = np.loadtxt([lines[i] for i in live], dtype=float, comments=None, ndmin=2)
        except ValueError:
            raise _bad_table(path, lines, live, cols) from None
        if parsed.shape != (len(live), cols):
            raise _bad_table(path, lines, live, cols)
    # allocated only now: each line is known to hold `cols` values
    values = np.zeros((rows, cols))
    values[live] = parsed
    return values
