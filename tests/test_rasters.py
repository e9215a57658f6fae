"""Raster emission: PGM/PPM byte layout, hue conversion, value-table round trip."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from crowdrisk import rasters
from crowdrisk.rasters import (
    _bad_table,
    _zero_row,
    hue_to_rgb,
    read_value_table,
    write_heatmap_ppm,
    write_pgm16,
    write_value_table,
)


def read_ppm(path: str) -> tuple[bytes, np.ndarray]:
    """The header and the (h, w, 3) pixels of a binary PPM."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, body = data.split(b"255\n", 1)
    w, h = map(int, header.split()[1:3])
    return header + b"255\n", np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)


class TestPGM:
    def test_zero_grid_all_zero_samples(self, tmp_path):
        path = str(tmp_path / "zero.pgm")
        write_pgm16(path, np.zeros((4, 6)))
        with open(path, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"P5\n6 4\n65535\n")
        samples = data.split(b"65535\n", 1)[1]
        assert samples == b"\x00" * (4 * 6 * 2)

    def test_single_stamp_max_at_center(self, tmp_path):
        values = np.zeros((5, 5))
        values[2, 2] = 2.0
        values[2, 1] = values[2, 3] = values[1, 2] = values[3, 2] = 1.0
        path = str(tmp_path / "stamp.pgm")
        write_pgm16(path, values)
        with open(path, "rb") as fh:
            body = fh.read().split(b"65535\n", 1)[1]
        samples = np.frombuffer(body, dtype=">u2").reshape(5, 5)
        assert samples[2, 2] == 65535
        assert samples.max() == samples[2, 2]
        assert samples[2, 1] == round(65535 / 2)

    def test_big_endian_sample_order(self, tmp_path):
        path = str(tmp_path / "be.pgm")
        write_pgm16(path, np.array([[0.0, 1.0]]))
        with open(path, "rb") as fh:
            body = fh.read().split(b"65535\n", 1)[1]
        assert body == b"\x00\x00\xff\xff"


class TestPPM:
    def test_header_and_payload(self, tmp_path):
        G = np.zeros((2, 3))
        G[0, 0] = 1.0
        path = str(tmp_path / "c.ppm")
        write_heatmap_ppm(path, G, np.zeros((2, 3)))
        header, pixels = read_ppm(path)
        assert header == b"P6\n3 2\n255\n"
        assert pixels[0, 0].tolist() == [255, 0, 0]
        assert pixels.reshape(-1, 3)[1:].tolist() == [[0, 0, 255]] * 5

    def test_rejects_grids_not_2d(self, tmp_path):
        for shape in ((4,), (2, 2, 3), ()):
            with pytest.raises(ValueError):
                write_heatmap_ppm(str(tmp_path / "x.ppm"), np.ones(shape), np.ones(shape))


class TestHueConversion:
    def test_primaries_in_degrees(self):
        rgb = hue_to_rgb(np.array([0.0, 120.0, 240.0]))
        assert rgb[0].tolist() == [255, 0, 0]
        assert rgb[1].tolist() == [0, 255, 0]
        assert rgb[2].tolist() == [0, 0, 255]

    def test_heatmap_extremes(self, tmp_path):
        # risk 0 and the peak: hue 120 and 0 on the halved scale
        path = str(tmp_path / "h.ppm")
        write_heatmap_ppm(path, np.array([[5.0, 0.0]]), np.zeros((1, 2)))
        _, pixels = read_ppm(path)
        assert pixels[0, 0].tolist() == [255, 0, 0]  # peak risk, zero hue: red
        assert pixels[0, 1].tolist() == [0, 0, 255]  # zero risk, 120 halved: blue


class TestHeatmap:
    def test_max_of_grid_and_doubled_violations(self, tmp_path):
        G = np.array([[3.0, 0.0, 4.0]])
        S = np.array([[5.0, 0.0, 0.0]])
        path = str(tmp_path / "m.ppm")
        write_heatmap_ppm(path, G, S)
        _, pixels = read_ppm(path)
        # risk max(G, 2*S) is 10, 0, 4: hue 0, 120 and 72, which at twice
        # the degrees is sector 2 with fraction 0.4; max(G, S) would give 24
        assert pixels[0].tolist() == [[255, 0, 0], [0, 0, 255], [0, 255, 102]]

    def test_all_zero_renders_uniform_blue(self, tmp_path):
        path = str(tmp_path / "z.ppm")
        write_heatmap_ppm(path, np.zeros((4, 4)), np.zeros((4, 4)))
        _, pixels = read_ppm(path)
        assert np.array_equal(pixels, np.broadcast_to([0, 0, 255], (4, 4, 3)))

    def test_hottest_red_coldest_blue_random(self, tmp_path):
        rng = np.random.default_rng(13)
        path = str(tmp_path / "r.ppm")
        for _ in range(50):
            G = rng.random((6, 6)) * 10
            S = rng.random((6, 6)) * 10
            risk = np.maximum(G, 2 * S)
            write_heatmap_ppm(path, G, S)
            _, pixels = read_ppm(path)
            assert pixels[np.unravel_index(risk.argmax(), risk.shape)].tolist() == [255, 0, 0]
            assert pixels[np.unravel_index(risk.argmin(), risk.shape)].tolist() == [0, 0, 255]

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_heatmap_ppm(str(tmp_path / "d.ppm"), np.zeros((3, 3)), np.zeros((4, 4)))


def reference_write_value_table(path: str, values: np.ndarray) -> None:
    """The table writer before the sparse one, kept verbatim as a byte oracle.

    It formats every cell of the grid through `np.unique`, which merges 0.0
    and -0.0, so it is only an oracle for grids without -0.0.
    """
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


def _sparse(rng, shape, live):
    grid = np.zeros(shape)
    cells = rng.choice(grid.size, size=live, replace=False)
    grid.flat[cells] = rng.exponential(size=live) * 10.0 ** rng.integers(-5, 5, size=live)
    return grid


def _oracle_grids():
    rng = np.random.default_rng(2048)
    grids = {f"sparse-{k}": _sparse(rng, (37, 53), live) for k, live in enumerate((1, 5, 60, 400))}
    grids["all-zero"] = np.zeros((6, 9))
    for name, row in (("first-row", 0), ("last-row", -1)):
        grids[name] = np.zeros((5, 7))
        grids[name][row, 2:5] = rng.normal(size=3)
    for name, col in (("first-col", 0), ("last-col", -1)):
        grids[name] = np.zeros((5, 7))
        grids[name][[1, 3], col] = (0.25, -7.5)
    grids["corners"] = np.zeros((4, 4))
    grids["corners"][[0, 0, -1, -1], [0, -1, 0, -1]] = (1.0, 2.0, 3.0, 4.0)
    grids["dense"] = rng.normal(size=(23, 31)) * 1e3
    grids["repeated"] = rng.choice([0.0, 1.0, 0.1, -2.5, 1e-300], size=(40, 40))
    grids["specials"] = np.array([
        [5e-324, -5e-324, 2.2250738585072014e-308, 0.0],
        [1.7976931348623157e308, -1e300, np.nan, 0.0],
        [np.inf, -np.inf, 0.0, -np.nan],
    ])
    grids["one-cell"] = np.array([[3.0]])
    grids["one-zero-cell"] = np.zeros((1, 1))
    grids["no-rows"] = np.zeros((0, 3))
    grids["no-cols"] = np.zeros((2, 0))
    # wide and mostly zero, as the risk grids are, so the reader scans them:
    # live cells in the first and last column, and special values
    specials = (-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e-300)
    for name, shape, live in (("wide-3x2048", (3, 2048), 6), ("wide-64x1500", (64, 1500), 40)):
        grid = _sparse(rng, shape, live)
        grid[0, 0], grid[-1, -1], grid[1, -1] = 2.5, 1e-7, 3.0
        grid.flat[rng.choice(grid.size, size=len(specials), replace=False)] = specials
        grids[name] = grid
    return grids


ORACLE_GRIDS = _oracle_grids()
# the old writer merges 0.0 and -0.0, so it is a byte oracle only for the others
WRITER_ORACLE_GRIDS = [name for name, grid in sorted(ORACLE_GRIDS.items())
                       if not np.any((grid == 0) & np.signbit(grid))]


class TestValueTable:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(7, 5)) * 1e3
        path = str(tmp_path / "table.txt")
        write_value_table(path, values)
        again = read_value_table(path)
        assert np.array_equal(again, values)

    def test_header_line(self, tmp_path):
        path = str(tmp_path / "t.txt")
        write_value_table(path, np.zeros((2, 3)))
        with open(path) as fh:
            assert fh.readline() == "# 2 3\n"

    def test_header_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("# 3 3\n1 2 3\n4 5 6\n")
        with pytest.raises(ValueError):
            read_value_table(path)

    @pytest.mark.parametrize("name", WRITER_ORACLE_GRIDS)
    def test_bytes_match_reference_writer(self, name, tmp_path):
        values = ORACLE_GRIDS[name]
        want, got = str(tmp_path / "want.txt"), str(tmp_path / "got.txt")
        reference_write_value_table(want, values)
        write_value_table(got, values)
        with open(want, "rb") as a, open(got, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_reader_matches_loadtxt(self, name, tmp_path):
        values = ORACLE_GRIDS[name]
        path = str(tmp_path / "t.txt")
        write_value_table(path, values)
        got = read_value_table(path)
        if values.size:
            with open(path) as fh:
                fh.readline()
                want = np.loadtxt(fh, dtype=float, ndmin=2)
        else:
            want = values
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(got, values, equal_nan=True)

    @pytest.mark.parametrize("row, text", [
        ([0.0, -0.0], "0 -0\n"),
        ([-0.0, 0.0], "-0 0\n"),
        ([-0.0, -0.0], "-0 -0\n"),
    ])
    def test_signed_zero_round_trips(self, row, text, tmp_path):
        values = np.array([row])
        path = str(tmp_path / "z.txt")
        write_value_table(path, values)
        with open(path) as fh:
            assert fh.read() == "# 1 2\n" + text
        again = read_value_table(path)
        assert np.array_equal(np.signbit(again), np.signbit(values))

    def test_sparse_write_memory_bounded(self, tmp_path):
        values = np.zeros((2048, 2048))
        values[1000, 7] = 1.5
        path = str(tmp_path / "big.txt")
        tracemalloc.start()
        try:
            write_value_table(path, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid is 32 MB; the full-grid writer peaked at 164 MB on top of it
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_sparse_write_temporaries_stay_small(self, tmp_path):
        # 200 live rows between zero runs of 600 and 1,048 rows: neither a
        # copy of the live rows (3 MB) nor a zero run's text (up to 4 MB)
        # may be built whole
        values = np.zeros((2048, 2048))
        rows = np.arange(600, 1000, 2)
        values[rows, (rows * 7) % 2048] = 1.25
        values[rows, 2047] = 2.5
        path = str(tmp_path / "gaps.txt")
        tracemalloc.start()
        try:
            write_value_table(path, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10, f"peak {peak / 2**10:.0f} KiB"
        assert np.array_equal(read_value_table(path), values)


class TestHostileTables:
    def _error(self, tmp_path, text):
        path = str(tmp_path / "hostile.txt")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        with pytest.raises(ValueError) as info:
            read_value_table(path)
        return str(info.value), path

    def test_ragged_row_names_file_line(self, tmp_path):
        zero = " ".join("0" * 4) + "\n"
        message, path = self._error(tmp_path, "# 4 4\n" + zero + "1 2 3 4\n1 2 3 4 5\n" + zero)
        assert message.startswith(f"{path}:4: ")
        assert "expected 4 values, found 5" in message

    def test_short_row_names_file_line(self, tmp_path):
        message, path = self._error(tmp_path, "# 3 3\n1 2 3\n0 0 0\n4 5\n")
        assert message.startswith(f"{path}:4: ")
        assert "expected 3 values, found 2" in message

    @pytest.mark.parametrize("token", ["abc", "1_0", "0x1"])
    def test_non_numeric_token_names_file_line(self, token, tmp_path):
        message, path = self._error(tmp_path, f"# 2 3\n0 0 0\n1 {token} 3\n")
        assert message.startswith(f"{path}:3: ")
        assert repr(token) in message

    def test_truncated_file_names_file_line(self, tmp_path):
        path = str(tmp_path / "full.txt")
        write_value_table(path, np.arange(12.0).reshape(4, 3))
        with open(path) as fh:
            text = fh.read()
        message, hostile = self._error(tmp_path, text[:text.index("\n6 7 8")])
        assert message.startswith(f"{hostile}:4: ")
        assert "header says 4 rows, file has 2" in message

    def test_truncated_inside_last_row(self, tmp_path):
        message, path = self._error(tmp_path, "# 2 3\n1 2 3\n4 5")
        assert message.startswith(f"{path}:3: ")

    def test_extra_rows_named(self, tmp_path):
        message, path = self._error(tmp_path, "# 1 2\n0 0\n0 0\n")
        assert message.startswith(f"{path}:3: ")

    @pytest.mark.parametrize("header", ["", "# 2\n", "2 2\n", "# 2 x\n", "# -1 2\n"])
    def test_bad_header_names_line_one(self, header, tmp_path):
        message, path = self._error(tmp_path, header + "0 0\n0 0\n")
        assert message.startswith(f"{path}:1: ")

    def test_huge_column_count_rejected_without_allocating(self, tmp_path):
        tracemalloc.start()
        try:
            message, path = self._error(tmp_path, f"# 2 {10**12}\n0 0\n0 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert message.startswith(f"{path}:2: ")
        assert peak < 2**20

    def test_non_ascii_names_file(self, tmp_path):
        path = str(tmp_path / "binary.txt")
        with open(path, "wb") as fh:
            fh.write(b"# 1 1\n\xff\n")
        with pytest.raises(ValueError, match="binary.txt"):
            read_value_table(path)


def reference_read_value_table(path: str) -> np.ndarray:
    """The table reader before the token scan, kept verbatim (with its name
    changed) as an oracle: it parses every live line with `np.loadtxt`."""
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


def _read_outcome(read, path):
    """The shape and bits a reader returns, or the message of the ValueError it raises."""
    try:
        values = read(path)
    except ValueError as exc:
        return str(exc)
    return values.shape, values.tobytes()


def _wide_table_text(cols: int = 2048) -> list[str]:
    """The lines of a writer-made table of four rows: zero, live, live, zero."""
    row = ["0"] * cols
    live = row.copy()
    live[0], live[cols // 2], live[-1] = "0.25", "7", "-1.5e-07"
    return [f"# 4 {cols}\n", " ".join(row) + "\n", " ".join(live) + "\n",
            " ".join(live) + "\n", " ".join(row) + "\n"]


class TestWideTablesMatchReferenceReader:
    """Mostly-zero tables go through the token scan, which must read what the
    old reader read: the same bits, or the same `path:line` message."""

    def _compare(self, tmp_path, text: str):
        path = str(tmp_path / "wide.txt")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        want = _read_outcome(reference_read_value_table, path)
        assert _read_outcome(read_value_table, path) == want
        return want

    @pytest.mark.parametrize("name", [n for n in sorted(ORACLE_GRIDS) if n.startswith("wide-")])
    def test_oracle_grid_read_without_loadtxt(self, name, tmp_path, monkeypatch):
        path = str(tmp_path / "t.txt")
        write_value_table(path, ORACLE_GRIDS[name])
        want = reference_read_value_table(path)

        def no_loadtxt(*args):
            raise AssertionError("a mostly-zero table in the writer's form went to np.loadtxt")

        monkeypatch.setattr(rasters, "_parse_lines", no_loadtxt)
        assert read_value_table(path).tobytes() == want.tobytes()

    @pytest.mark.parametrize("col", [0, 1000, 2047])
    @pytest.mark.parametrize("token", [
        "00", "-0", "1_0", "1E5", "+1", ".5", "5.", "1e", "--1", "nan", "-nan", "inf", "-inf",
        "NaN", "infinity", "nain", "1e999", "1e-999", "0x1", "e", ".", "-", "0.0", "007",
        "1e+5", "1.5e-3",
    ])
    def test_cell_token(self, token, col, tmp_path):
        lines = _wide_table_text()
        cells = lines[2].split()
        cells[col] = token
        lines[2] = " ".join(cells) + "\n"
        self._compare(tmp_path, "".join(lines))

    @pytest.mark.parametrize("edit", [
        ("0 0 0 0", "0 0  0 0"),  # a doubled space
        ("0 0 0 0", "0 0\t0 0"),  # a tab
        ("\n", " \n"),  # a trailing space
        ("0.25", " 0.25"),  # a leading space
        ("0 0 0 0", "0 0 0"),  # too few cells
        ("0 0 0 0", "0 0 0 0 0"),  # too many cells
    ])
    def test_line_edit(self, edit, tmp_path):
        lines = _wide_table_text()
        lines[2] = lines[2].replace(*edit, 1)
        self._compare(tmp_path, "".join(lines))

    def test_crlf_line_ends(self, tmp_path):
        shape, _ = self._compare(tmp_path, "".join(_wide_table_text()).replace("\n", "\r\n"))
        assert shape == (4, 2048)

    @pytest.mark.parametrize("last", ["live", "zero"])
    def test_no_final_newline(self, last, tmp_path):
        lines = _wide_table_text()
        if last == "live":
            lines[-1] = lines[2]
        shape, _ = self._compare(tmp_path, "".join(lines)[:-1])
        assert shape == (4, 2048)

    def test_random_tokens_of_the_writer_bytes(self, tmp_path):
        rng = np.random.default_rng(13)
        chars = list("0123456789.e+-naif")
        for _ in range(300):
            cells = ["0"] * 64
            for col in rng.choice(64, size=int(rng.integers(1, 4)), replace=False):
                cells[col] = "".join(rng.choice(chars, size=int(rng.integers(1, 6))))
            self._compare(tmp_path, "# 2 64\n" + " ".join(cells) + "\n" + " ".join(["0"] * 64) + "\n")


# The raster writers before they went by live cells, kept verbatim (with
# `reference_` names) as byte oracles: they normalize and colour every cell
# of the grid.


def reference_normalize(X: np.ndarray, l: float, u: float) -> np.ndarray:
    """Affine rescale of X into [l, u]; a constant matrix maps to all l."""
    if not u > l:
        raise ValueError(f"need u > l, got l={l}, u={u}")
    X = np.asarray(X, dtype=float)
    lo = X.min()
    hi = X.max()
    if hi == lo:
        return np.full_like(X, float(l))
    # ratio first: exactly 0 at the min and 1 at the max, so the output
    # range hits [l, u] endpoint-exact; one output array, updated in place
    out = np.subtract(X, lo)
    out /= hi - lo
    out *= u - l
    out += l
    return out


def reference_write_pgm16(path: str, values: np.ndarray) -> None:
    """Write a grid as a 16-bit grayscale raster, normalized to full range.

    A constant grid (including all-zero) writes all-zero samples.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"raster input must be 2-D, got shape {values.shape}")
    scaled = reference_normalize(values, 0.0, 65535.0)
    samples = np.rint(scaled, out=scaled).astype(">u2")
    h, w = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(samples.tobytes())


def reference_write_ppm(path: str, rgb: np.ndarray) -> None:
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
_REFERENCE_BLOCK_CELLS = 128 * 2048


def _reference_hue_block_to_rgb(hue_deg: np.ndarray, out: np.ndarray) -> None:
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


def reference_hue_to_rgb(hue_deg: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Convert a hue raster to uint8 RGB at maximum saturation and value.

    Hues are in degrees after multiplying by `scale`.  The raster is
    converted in blocks into one preallocated (..., 3) array.
    """
    hue = np.asarray(hue_deg, dtype=float)
    flat = hue.reshape(-1)
    rgb = np.empty((flat.size, 3), dtype=np.uint8)
    for start in range(0, flat.size, _REFERENCE_BLOCK_CELLS):
        block = flat[start:start + _REFERENCE_BLOCK_CELLS]
        _reference_hue_block_to_rgb(block * scale, rgb[start:start + len(block)])
    return rgb.reshape(hue.shape + (3,))


def reference_render_heatmap(G: np.ndarray, S_combined: np.ndarray) -> np.ndarray:
    """Hue raster of combined risk: 120 (blue) at zero risk, 0 (red) at peak.

    The risk field is max(G, 2*S) normalized into [0, 120]; hue is its
    complement so hot cells render red.
    """
    G = np.asarray(G, dtype=float)
    S_combined = np.asarray(S_combined, dtype=float)
    if G.shape != S_combined.shape:
        raise ValueError(f"grid shapes differ: {G.shape} vs {S_combined.shape}")
    risk = reference_normalize(np.maximum(G, 2.0 * S_combined), 0.0, 120.0)
    return np.subtract(120.0, risk, out=risk)


def reference_write_heatmap_ppm(path: str, G: np.ndarray, S: np.ndarray) -> None:
    """The heatmap as the pipeline wrote it: render, then the halved hue scale."""
    reference_write_ppm(path, reference_hue_to_rgb(reference_render_heatmap(G, S), scale=2.0))


def _raster_grids():
    rng = np.random.default_rng(4096)
    grids = dict(ORACLE_GRIDS)  # sparse, dense, specials, 1x1, empty shapes
    grids["constant"] = np.full((5, 8), 7.25)
    grids["single-live"] = np.zeros((9, 11))
    grids["single-live"][4, 6] = 0.3
    grids["negative"] = _sparse(rng, (12, 15), 20) * -1.0
    grids["mixed-sign"] = _sparse(rng, (12, 15), 30) * rng.choice([-1.0, 1.0], size=(12, 15))
    grids["neg-zero"] = np.zeros((6, 7))
    grids["neg-zero"][[1, 1, 4], [0, 3, 6]] = (-0.0, 2.5, -0.0)
    grids["all-neg-zero"] = np.full((3, 4), -0.0)
    grids["neg-zero-and-negative"] = np.array([[-0.0, -1.0, 0.0], [0.0, 0.0, -0.0]])
    grids["plus-inf"] = np.zeros((4, 5))
    grids["plus-inf"][2, 1] = np.inf
    grids["plus-inf-and-finite"] = grids["plus-inf"].copy()
    grids["plus-inf-and-finite"][0, 4] = 3.0
    grids["minus-inf"] = np.zeros((4, 5))
    grids["minus-inf"][3, 3] = -np.inf
    grids["nan"] = np.zeros((4, 5))
    grids["nan"][1, 2] = np.nan
    grids["all-nan"] = np.full((2, 3), np.nan)
    grids["one-by-n"] = np.zeros((1, 9))
    grids["one-by-n"][0, [2, 7]] = (1.0, 4.0)
    grids["one-by-n-dense"] = rng.random((1, 9))
    grids["n-by-one"] = np.zeros((9, 1))
    grids["n-by-one"][[0, 5], 0] = (2.0, 0.5)
    grids["uint8"] = np.array([[0, 3], [255, 0]], dtype=np.uint8)
    grids["fortran-order"] = np.asfortranarray(_sparse(rng, (7, 13), 12))
    grids["strided"] = _sparse(rng, (10, 26), 40)[::2, 1::3]
    return grids


RASTER_GRIDS = _raster_grids()
# the heatmap's second grid: violations alone, presence alone, or both
PARTNERS = {
    "S-only": lambda g: (np.zeros(np.shape(g)), g),
    "G-only": lambda g: (g, np.zeros(np.shape(g))),
    "both": lambda g: (g, np.asarray(g, dtype=float)[::-1, ::-1] * 0.375),
}


def _outcome(write, path, *grids):
    """The bytes a writer leaves, or the class of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            write(path, *grids)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    with open(path, "rb") as fh:
        return fh.read()


class TestRasterOracles:
    @pytest.mark.parametrize("name", sorted(RASTER_GRIDS))
    def test_pgm_bytes_match_reference_writer(self, name, tmp_path):
        values = RASTER_GRIDS[name]
        want = _outcome(reference_write_pgm16, str(tmp_path / "want.pgm"), values)
        got = _outcome(write_pgm16, str(tmp_path / "got.pgm"), values)
        assert got == want

    @pytest.mark.parametrize("partner", sorted(PARTNERS))
    @pytest.mark.parametrize("name", sorted(RASTER_GRIDS))
    def test_heatmap_bytes_match_reference_writer(self, name, partner, tmp_path):
        G, S = PARTNERS[partner](RASTER_GRIDS[name])
        want = _outcome(reference_write_heatmap_ppm, str(tmp_path / "want.ppm"), G, S)
        got = _outcome(write_heatmap_ppm, str(tmp_path / "got.ppm"), G, S)
        assert got == want

    @pytest.mark.parametrize("G, S", [
        (np.zeros(4), np.zeros(4)),
        (np.zeros((2, 2, 3)), np.zeros((2, 2, 3))),
        (np.zeros((3, 3)), np.zeros((3, 4))),
        (np.zeros((0, 0)), np.zeros((0, 0))),
    ])
    def test_bad_input_raises_like_reference_writer(self, G, S, tmp_path):
        want, got = str(tmp_path / "want"), str(tmp_path / "got")
        raised = _outcome(reference_write_heatmap_ppm, want, G, S)
        assert isinstance(raised, type)
        assert _outcome(write_heatmap_ppm, got, G, S) is raised
        assert _outcome(write_pgm16, got, G) == _outcome(reference_write_pgm16, want, G)

    @pytest.mark.parametrize("kind", ["pgm", "ppm"])
    def test_sparse_raster_memory_bounded(self, kind, tmp_path):
        values = np.zeros((2048, 2048))
        values[1000, 7] = 1.5
        zeros = np.zeros_like(values)
        path = str(tmp_path / f"big.{kind}")
        tracemalloc.start()
        try:
            if kind == "pgm":
                write_pgm16(path, values)
            else:
                write_heatmap_ppm(path, values, zeros)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid is 32 MB; writing every cell built 8 MB of samples or
        # 12 MB of colour, and float temporaries of 2 MB per 262,144 cells
        assert peak < 2**20, f"peak {peak / 2**10:.0f} KiB"
