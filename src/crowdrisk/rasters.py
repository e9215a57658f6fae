"""Portable raster and value-table emission for the risk grids.

Grayscale goes out as binary PGM (P5) with 16-bit big-endian samples,
color as binary PPM (P6) with 8-bit samples.  Value tables are plain
whitespace-separated text with a `# rows cols` header so external tools
can re-plot the raw grids: one line per grid row, each cell as its own
`.17g` text (round-trip exact, signed zero included).

The risk grids are mostly +0.0, with a few live cells in a few live rows,
so every writer costs what the live cells cost.  `_live_cells` finds them.
A raster maps only them, and one 0.0 standing for every other cell, through
its normalization and colour conversion; its rows go out in blocks copied
from one cached block of background rows, with the live cells' samples put
in.  A table formats only the live cells: an all-zero row is one cached
`0 0 ... 0` line, and a live row splices its cell texts into that line.  No
writer builds an array or a text the size of the grid.  Reading a table
skips the lines equal to the all-zero line.  When the other lines are
mostly `0` cells, numpy locates their non-zero cells on a byte view and
only those are parsed, so reading costs what the non-zero cells cost;
tables with many non-zero cells are parsed by `np.loadtxt`.
"""

from __future__ import annotations

import numpy as np

from .risk import normalize, row_runs


def _live_cells(*grids: np.ndarray) -> np.ndarray:
    """The row-major flat indices of the cells where some grid is not +0.0.

    The grids are float64 and of one 2-D shape; an index divided by the
    width gives the cell's row and, as remainder, its column within that
    row.  +0.0 is the only value whose bits are all zero, so -0.0 and NaN
    cells are live.  Only the runs of rows that hold a live cell are searched
    for their columns.
    """
    width = grids[0].shape[1]
    found = [np.zeros(0, dtype=np.intp)]
    for grid in grids:
        bits = np.ascontiguousarray(grid).view(np.uint64)
        found += [np.flatnonzero(bits[start:stop]) + start * width
                  for start, stop in row_runs(bits.any(axis=1))]
    # sorted, and a cell live in two grids once (np.union1d would do, but its
    # first call on integers imports numpy.ma, ~20 ms in every process)
    live = np.sort(np.concatenate(found))
    return live[np.diff(live, prepend=-1) != 0]


def _gather(values: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The live cells in row-major order, then one 0.0 for all the other cells, if any."""
    return np.concatenate([values.take(live), np.zeros(min(values.size - len(live), 1))])


# Background rows go out in writes of at most this many bytes, so their
# cached block and its copies stay below glibc's initial mmap threshold
# (128 KiB): freeing a multi-MB temporary would raise that threshold, later
# multi-MB arrays would then stay resident on the heap after they are freed,
# and the run's peak memory would grow by an amount that follows where the
# live rows fall.
_BLOCK_BYTES = 64 * 1024


def _write_raster(path: str, magic: str, maxval: int, shape: tuple[int, int],
                  live: np.ndarray, samples: np.ndarray) -> None:
    """Write a binary PGM/PPM from the samples of the `live` cells, one per cell.

    Every other cell gets the last sample, the one `_gather` appended for
    them (when every cell is live, it is overwritten everywhere).  The rows
    go out a block at a time: a block without live cells is a slice of one
    cached block of background rows, a block with live cells is a copy of
    that slice with their samples put in.
    """
    rows, cols = shape
    blank = np.empty((cols,) + samples.shape[1:], dtype=samples.dtype)
    blank[...] = samples[-1]
    per_block = max(1, _BLOCK_BYTES // blank.nbytes)
    block = np.broadcast_to(blank, (per_block,) + blank.shape).copy()
    starts = range(0, rows, per_block)
    # live[bounds[i]:bounds[i + 1]] are the live cells of the i-th block
    bounds = np.searchsorted(live, [start * cols for start in starts] + [rows * cols]).tolist()
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{cols} {rows}\n{maxval}\n".encode("ascii"))
        for start, lo, hi in zip(starts, bounds, bounds[1:]):
            out = block[:min(per_block, rows - start)]
            if hi > lo:
                out = out.copy()
                cells = out.reshape((-1,) + samples.shape[1:])
                cells[live[lo:hi] - start * cols] = samples[lo:hi]
            fh.write(out)


def write_pgm16(path: str, values: np.ndarray) -> None:
    """Write a grid as a 16-bit grayscale raster, normalized to full range.

    A constant grid (including all-zero) writes all-zero samples.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"raster input must be 2-D, got shape {values.shape}")
    live = _live_cells(values)
    scaled = normalize(_gather(values, live), 0.0, 65535.0)
    samples = np.rint(scaled, out=scaled).astype(">u2")
    _write_raster(path, "P5", 65535, values.shape, live, samples)


# Cells converted per block: each float temporary of a block is 64 KiB,
# below glibc's initial mmap threshold, however many cells are live.
_BLOCK_CELLS = 8192


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


def write_heatmap_ppm(path: str, G: np.ndarray, S: np.ndarray) -> None:
    """Write the risk heatmap of tracking grid G and combined violation grid S.

    The risk field max(G, 2*S) is normalized into [0, 120] and its
    complement is the hue on a halved scale: 120 (blue) at zero risk, 0
    (red) at the peak.
    """
    G = np.asarray(G, dtype=float)
    S = np.asarray(S, dtype=float)
    if G.shape != S.shape:
        raise ValueError(f"grid shapes differ: {G.shape} vs {S.shape}")
    if G.ndim != 2:
        raise ValueError(f"raster input must be 2-D, got shape {G.shape}")
    live = _live_cells(G, S)
    risk = normalize(np.maximum(_gather(G, live), 2.0 * _gather(S, live)), 0.0, 120.0)
    hue = np.subtract(120.0, risk, out=risk)
    _write_raster(path, "P6", 255, G.shape, live, hue_to_rgb(hue, scale=2.0))


def _zero_row(cols: int) -> str:
    """The text of an all-zero table row: `0 0 ... 0` and a newline."""
    return " ".join("0" * cols) + "\n"


def _write_zero_rows(fh, block: memoryview, width: int, n: int) -> None:
    """Write n all-zero rows of `width` bytes each from a block of them."""
    per_block = len(block) // width
    for _ in range(n // per_block):
        fh.write(block)
    fh.write(block[:(n % per_block) * width])


def write_value_table(path: str, values: np.ndarray) -> None:
    """Dump a matrix as text rows, header `# rows cols`, round-trip exact.

    Every cell is written as its own `.17g` text, `-0` included.  Only the
    cells that are not +0.0 are formatted: an all-zero row is one cached
    string, and a live row splices its cell texts between slices of that
    string, so the cost follows the non-zero cells, not the grid.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"value table input must be 2-D, got shape {values.shape}")
    rows, cols = values.shape
    zero_row = _zero_row(cols).encode("ascii")
    zero_block = memoryview(zero_row * max(1, _BLOCK_BYTES // len(zero_row)))
    live = _live_cells(values)
    uniq, inverse = np.unique(values.take(live), return_inverse=True)
    texts = [f"{x:.17g}".encode("ascii") for x in uniq.tolist()]
    row_of, col_of = np.divmod(live, max(cols, 1))  # no live cell without columns
    # live cells first[i]:first[i + 1] are those of the i-th live row
    first = np.flatnonzero(np.diff(row_of, prepend=-1)).tolist()
    live_rows = row_of[first].tolist()
    with open(path, "wb") as fh:
        fh.write(f"# {rows} {cols}\n".encode("ascii"))
        next_row = 0
        for row, a, b in zip(live_rows, first, first[1:] + [len(live)]):
            _write_zero_rows(fh, zero_block, len(zero_row), row - next_row)
            # each cell's `0` sits at byte 2 * col of the zero row
            parts = []
            at = 0
            for col, k in zip(col_of[a:b].tolist(), inverse[a:b].tolist()):
                parts += (zero_row[at:2 * col], texts[k])
                at = 2 * col + 1
            parts.append(zero_row[at:])
            fh.write(b"".join(parts))
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


# The bytes of a non-zero cell's `.17g` text, `nan` and `inf` included.
_CELL_BYTES = b"0123456789.e+-nainf"
# The length of the longest such text, as `-2.2250738585072014e-308`.
_LONGEST_CELL = 24
# Live lines are scanned while at most one cell in this many is not `0`:
# beyond that, parsing their non-zero cells one by one costs about what
# `np.loadtxt` costs for all of them.
_SCAN_SHARE = 16


def _scan_cells(lines: list[str], live: list[int], cols: int):
    """Locate and parse the cells of lines[i], i in `live`, that are not `0`.

    It works on lines in the writer's form: `cols` tokens separated by
    single spaces, made of `_CELL_BYTES`, with every zero cell the lone token
    `0`, and a final newline.  Numpy finds the tokens that are not a lone `0`
    on a byte view of the joined lines; only those are parsed.  A lone `0`
    and its separator take exactly two bytes, so a token's column follows
    from its offset in its line and the lengths of the located tokens before
    it.  Returns the (index into `live`, column, value) arrays of the located
    tokens, or None when the lines are not in the writer's form, a token does
    not parse, or more than one cell in `_SCAN_SHARE` is not `0`.
    """
    if not lines[live[-1]].endswith("\n"):  # only the file's last line can lack it
        return None
    lengths = [len(lines[i]) for i in live]
    # lines in the writer's form with more bytes than this hold more than one
    # non-zero cell in _SCAN_SHARE: they are not joined for a scan
    if sum(lengths) * _SCAN_SHARE > (2 * _SCAN_SHARE + _LONGEST_CELL - 1) * cols * len(live):
        return None
    text = "".join(["\n", *(lines[i] for i in live)])
    newline = np.cumsum([0] + lengths)  # the offsets of text's newlines
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # only spaces and the line ends separate tokens; any other byte, a tab
    # included, is part of a token and must be one of _CELL_BYTES
    sep = buf == 32
    sep[newline] = True
    lone = sep[:-2] & (buf[1:-1] == 48) & sep[2:]  # lone[p - 1]: byte p is a lone `0`
    located = sep[:-2] > lone  # located[p - 1]: a token that is not a lone `0` starts at p
    if np.count_nonzero(located) * _SCAN_SHARE > cols * len(live):
        return None
    starts = np.flatnonzero(located) + 1
    ends = np.flatnonzero(sep[2:] > lone) + 2
    # a token that starts at a separator, or a separator before the last
    # newline, is an empty token: a doubled, leading or trailing space, or
    # an empty line
    if len(starts) != len(ends) or sep[-2] or sep[starts].any():
        return None
    line = np.searchsorted(newline, starts) - 1
    extra = ends - starts - 1  # each token's bytes beyond a lone `0`'s one
    before = np.cumsum(np.concatenate(([0], extra)))
    first = np.searchsorted(line, np.arange(len(live) + 1))
    # a line of t tokens takes 2 * t bytes plus its tokens' extra bytes
    if np.any(np.diff(newline) - np.diff(before[first]) != 2 * cols):
        return None
    offset = starts - newline[line] - 1
    col = (offset - (before[:-1] - before[first[line]])) // 2

    values = np.empty(len(starts))
    short = extra == 0
    # a one-byte token other than `0` must be a digit; bytes below `0` wrap past 9
    digits = buf[starts[short]] - 48
    if np.any(digits > 9):
        return None
    values[short] = digits
    long = ~short
    tokens = [text[a:b] for a, b in zip(starts[long].tolist(), ends[long].tolist())]
    if "".join(tokens).encode("ascii").translate(None, _CELL_BYTES):
        return None  # a byte outside the writer's form
    try:
        values[long] = [float(token) for token in tokens]
    except ValueError:
        return None
    return line, col, values


def _parse_lines(path: str, lines: list[str], live: list[int], cols: int) -> np.ndarray:
    """The values of lines[i] for i in `live`, one row each, parsed by `np.loadtxt`."""
    try:
        parsed = np.loadtxt([lines[i] for i in live], dtype=float, comments=None, ndmin=2)
    except ValueError:
        raise _bad_table(path, lines, live, cols) from None
    if parsed.shape != (len(live), cols):
        raise _bad_table(path, lines, live, cols)
    return parsed


def read_value_table(path: str) -> np.ndarray:
    """Read a table written by `write_value_table`.

    Lines equal to the all-zero row stay zeros.  When the other lines hold
    few bytes beyond two a cell, they are mostly `0` cells: they are scanned
    (`_scan_cells`) and only their non-zero cells are parsed, so reading
    costs what the non-zero cells cost.  Other tables, and lines that are not
    in the writer's form, are parsed by one `np.loadtxt`.  A malformed table
    raises ValueError naming the file and line.
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
    if not live:
        return np.zeros((rows, cols))
    found = _scan_cells(lines, live, cols)
    parsed = _parse_lines(path, lines, live, cols) if found is None else None
    # allocated only now: each line is known to hold `cols` values
    values = np.zeros((rows, cols))
    if found is None:
        values[live] = parsed
    else:
        line, col, cells = found
        values[np.asarray(live)[line], col] = cells
    return values
