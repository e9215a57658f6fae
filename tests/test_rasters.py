"""Raster emission: PGM/PPM byte layout, hue conversion, value-table round trip."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from crowdrisk.rasters import (
    hue_to_rgb,
    read_value_table,
    write_heatmap_ppm,
    write_pgm16,
    write_ppm,
    write_value_table,
)


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
        rgb = np.zeros((2, 3, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 0, 0)
        path = str(tmp_path / "c.ppm")
        write_ppm(path, rgb)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert data.split(b"255\n", 1)[1][:3] == b"\xff\x00\x00"

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2, 3)))


class TestHueConversion:
    def test_primaries_in_degrees(self):
        rgb = hue_to_rgb(np.array([0.0, 120.0, 240.0]))
        assert rgb[0].tolist() == [255, 0, 0]
        assert rgb[1].tolist() == [0, 255, 0]
        assert rgb[2].tolist() == [0, 0, 255]

    def test_heatmap_extremes(self, tmp_path):
        hue = np.array([[0.0, 120.0]])
        path = str(tmp_path / "h.ppm")
        write_heatmap_ppm(path, hue)
        with open(path, "rb") as fh:
            body = fh.read().split(b"255\n", 1)[1]
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(1, 2, 3)
        assert pixels[0, 0].tolist() == [255, 0, 0]  # zero hue: red
        assert pixels[0, 1].tolist() == [0, 0, 255]  # 120 on the halved scale: blue


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
    return grids


ORACLE_GRIDS = _oracle_grids()


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

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
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
