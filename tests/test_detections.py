"""Detection ingest tests: format arithmetic, grouping, rejection accounting."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from crowdrisk.detections import (
    DetectionParseError,
    parse_detections,
    parse_jsonl_detections,
    parse_mot_detections,
)


class TestMotParser:
    def test_center_conversion(self):
        out = parse_mot_detections(["1,-1,100,200,50,100,0.9,-1,-1,-1"])
        assert out.accepted == 1
        frame, rows = out.frames[0]
        assert frame == 1
        assert rows[0].tolist() == [125.0, 250.0, 50.0, 100.0, 0.9]

    def test_empty_input(self):
        out = parse_mot_detections([])
        assert out.frames == ()
        assert out.accepted == 0

    def test_out_of_order_frames_stably_sorted(self):
        lines = [
            "2,-1,0,0,5,5,0.5,-1,-1,-1",
            "1,-1,10,0,5,5,0.5,-1,-1,-1",
            "1,-1,20,0,5,5,0.5,-1,-1,-1",
        ]
        out = parse_mot_detections(lines)
        assert [f for f, _ in out.frames] == [1, 2]
        frame1 = out.frames[0][1]
        assert frame1[:, 0].tolist() == [12.5, 22.5]  # in-file order kept

    def test_nonpositive_sides_rejected_with_count(self):
        lines = [
            "1,-1,0,0,5,5,0.5,-1,-1,-1",
            "1,-1,0,0,0,5,0.5,-1,-1,-1",
            "1,-1,0,0,5,-2,0.5,-1,-1,-1",
        ]
        out = parse_mot_detections(lines)
        assert out.accepted == 1
        assert out.rejected == 2

    @pytest.mark.parametrize(
        "fields",
        ["0,0,nan,5,0.5", "inf,0,5,5,0.5", "0,-inf,5,5,0.5", "0,0,5,inf,0.5", "0,0,5,5,nan"],
    )
    def test_non_finite_fields_rejected_with_count(self, fields):
        out = parse_mot_detections(["1,-1,0,0,5,5,0.5,-1,-1,-1", f"1,-1,{fields},-1,-1,-1"])
        assert out.accepted == 1
        assert out.rejected == 1

    @pytest.mark.parametrize("fields", [
        "0,0,1e200,1e200,0.5",  # area overflows
        "0,0,1e300,1e-300,0.5",  # aspect overflows
        "1e308,0,1e308,5,0.5",  # right edge overflows
        "0,1e308,1,1e308,0.5",  # bottom edge overflows
    ])
    def test_overflowing_boxes_rejected_with_count(self, fields):
        out = parse_mot_detections(["1,-1,0,0,5,5,0.5,-1,-1,-1", f"1,-1,{fields},-1,-1,-1"])
        assert out.accepted == 1
        assert out.rejected == 1

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(DetectionParseError) as exc:
            parse_mot_detections(["1,-1,0,0,5,5,0.5,-1,-1,-1", "1,-1,zap,0,5,5,0.5,-1,-1,-1"])
        assert exc.value.line_no == 2

    def test_too_few_fields(self):
        with pytest.raises(DetectionParseError):
            parse_mot_detections(["1,2,3"])

    def test_frame_zero_rejected(self):
        with pytest.raises(DetectionParseError):
            parse_mot_detections(["0,-1,0,0,5,5,0.5,-1,-1,-1"])

    def test_blank_lines_skipped(self):
        out = parse_mot_detections(["", "1,-1,0,0,5,5,0.5,-1,-1,-1", "  "])
        assert out.accepted == 1


class TestJsonlParser:
    def test_single_record(self):
        line = json.dumps({"frame": 3, "x": 12.0, "y": 20.0, "w": 4.0, "h": 8.0, "conf": 0.7})
        out = parse_jsonl_detections([line])
        assert out.accepted == 1
        frame, rows = out.frames[0]
        assert frame == 3
        assert rows[0, 0] == 12.0  # x, y already center format

    def test_out_of_range_confidence_rejected(self):
        line = json.dumps({"frame": 1, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 1.2})
        out = parse_jsonl_detections([line])
        assert out.accepted == 0
        assert out.rejected == 1

    @pytest.mark.parametrize("key,value", [("x", "NaN"), ("y", "-Infinity"), ("w", "Infinity"),
                                           ("h", "NaN"), ("conf", "NaN")])
    def test_non_finite_values_rejected_with_count(self, key, value):
        fields = {"frame": 1, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 0.5}
        good = json.dumps(fields)
        bad = good.replace(f'"{key}": {fields[key]}', f'"{key}": {value}')
        assert bad != good
        out = parse_jsonl_detections([good, bad])
        assert out.accepted == 1
        assert out.rejected == 1

    @pytest.mark.parametrize("box", [
        {"w": 1e200, "h": 1e200},  # area overflows
        {"w": 1e300, "h": 1e-300},  # aspect overflows
        {"x": -1.5e308, "w": 1e308},  # left edge overflows
        {"y": -1.5e308, "h": 1e308},  # top edge overflows
    ])
    def test_overflowing_boxes_rejected_with_count(self, box):
        fields = {"frame": 1, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 0.5}
        out = parse_jsonl_detections([json.dumps(fields), json.dumps({**fields, **box})])
        assert out.accepted == 1
        assert out.rejected == 1

    # a frame that is not a whole number is an error, not truncated to one
    @pytest.mark.parametrize("frame", ["Infinity", "NaN", "1e400", "1.5", "2.9", "true", "false"])
    def test_non_finite_frame_reports_line_number(self, frame):
        line = f'{{"frame": {frame}, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 0.5}}'
        with pytest.raises(DetectionParseError) as exc:
            parse_jsonl_detections(["", line])
        assert exc.value.line_no == 2

    # a quoted number or a JSON boolean is not a number in any field
    @pytest.mark.parametrize("value", ['"3"', '"1"', '"NaN"', "true", "false"])
    @pytest.mark.parametrize("key", ["frame", "x", "y", "w", "h", "conf"])
    def test_string_or_boolean_field_reports_line_number(self, key, value):
        fields = {"frame": 3, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 0.5}
        line = json.dumps(fields).replace(f'"{key}": {fields[key]}', f'"{key}": {value}')
        with pytest.raises(DetectionParseError) as exc:
            parse_jsonl_detections([json.dumps(fields), line])
        assert exc.value.line_no == 2

    def test_integral_float_frame_accepted(self):
        line = '{"frame": 2.0, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 0.5}'
        out = parse_jsonl_detections([line])
        assert [f for f, _ in out.frames] == [2]
        assert type(out.frames[0][0]) is int

    def test_missing_key_raises(self):
        with pytest.raises(DetectionParseError) as exc:
            parse_jsonl_detections([json.dumps({"frame": 1, "x": 0, "y": 0, "w": 4})])
        assert exc.value.line_no == 1

    def test_invalid_json_raises(self):
        with pytest.raises(DetectionParseError):
            parse_jsonl_detections(["{not json"])

    def test_format_equivalence_with_mot(self):
        """The same detections through both carriers produce identical records."""
        boxes = [
            (1, 100.0, 200.0, 50.0, 100.0, 0.9),
            (1, 300.0, 180.0, 40.0, 90.0, 0.8),
            (2, 104.0, 202.0, 50.0, 100.0, 0.85),
        ]
        mot_lines = [
            f"{f},-1,{cx - w / 2},{cy - h / 2},{w},{h},{c},-1,-1,-1"
            for f, cx, cy, w, h, c in boxes
        ]
        jsonl_lines = [
            json.dumps({"frame": f, "x": cx, "y": cy, "w": w, "h": h, "conf": c})
            for f, cx, cy, w, h, c in boxes
        ]
        mot, jsonl = parse_mot_detections(mot_lines), parse_jsonl_detections(jsonl_lines)
        assert (mot.accepted, mot.rejected) == (jsonl.accepted, jsonl.rejected)
        assert [f for f, _ in mot.frames] == [f for f, _ in jsonl.frames]
        for (_, a), (_, b) in zip(mot.frames, jsonl.frames):
            assert np.array_equal(a, b)


class TestDispatch:
    def test_known_formats(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,-1,0,0,5,5,0.5,-1,-1,-1\n")
        assert parse_detections(str(path), "mot").accepted == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_detections([], "csv")


def validated(cx, cy, w, h, conf):
    """Reference: the per-record box rule, the (cx, cy, w, h, conf) row or None."""
    if not all(map(math.isfinite, (cx, cy, w, h, conf))):
        return None
    if w <= 0 or h <= 0 or not (0.0 <= conf <= 1.0):
        return None
    derived = (w * h, w / h, cx - w / 2.0, cx + w / 2.0, cy - h / 2.0, cy + h / 2.0)
    if not all(map(math.isfinite, derived)):
        return None
    return (cx, cy, w, h, conf)


# Field values that break one box rule each, mixed into valid records.
HOSTILE = {
    "pos": [math.nan, math.inf, -math.inf, 1e308, -1.5e308],
    "side": [math.nan, math.inf, 0.0, -2.0, 1e200, 1e300, 1e-300, 1e308],
    "conf": [math.nan, -0.1, 1.2, -math.inf, 0.0, 1.0],
}


# (a, b, w, h) with a finite area and aspect whose corners may overflow,
# read as (left, top) by the MOT parser and as (cx, cy) by the JSON one.
CORNER_ONLY = [(-1.5e308, 0.0, 1e308, 1.0), (1.5e308, 0.0, 1e308, 1.0),
               (0.0, -1.5e308, 1.0, 1e308), (0.0, 1.5e308, 1.0, 1e308),
               (1e308, 0.0, 1e308, 1.0), (0.0, 1e308, 1.0, 1e308)]


def random_records(seed: int, n: int = 400):
    """(frame, a, b, w, h, conf) tuples, frames out of order, about a third hostile."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = rng.uniform(-50, 2000, 2).tolist()
        w, h = rng.uniform(1, 300, 2).tolist()
        conf = float(rng.uniform(0, 1))
        rec = [int(rng.integers(1, 30)), a, b, w, h, conf]
        if rng.random() < 1 / 3:  # one or two fields, so w and h can both be extreme
            for slot in rng.choice(np.arange(1, 6), size=int(rng.integers(1, 3)), replace=False):
                kind = "pos" if slot < 3 else "side" if slot < 5 else "conf"
                rec[slot] = HOSTILE[kind][int(rng.integers(0, len(HOSTILE[kind])))]
        out.append(tuple(rec))
    for a, b, w, h in CORNER_ONLY:
        out.insert(int(rng.integers(0, len(out) + 1)), (int(rng.integers(1, 30)), a, b, w, h, 0.5))
    return out


def reference_ingest(records, left_top: bool):
    """Frames with their accepted rows in file order, and the rejected count."""
    by_frame: dict[int, list[tuple]] = {}
    rejected = 0
    for frame, a, b, w, h, conf in records:
        row = validated(a + w / 2.0, b + h / 2.0, w, h, conf) if left_top else validated(
            a, b, w, h, conf)
        if row is None:
            rejected += 1
        else:
            by_frame.setdefault(frame, []).append(row)
    return {f: by_frame[f] for f in sorted(by_frame)}, rejected


def assert_matches_reference(out, records, left_top: bool):
    frames, rejected = reference_ingest(records, left_top)
    assert (out.accepted, out.rejected) == (sum(map(len, frames.values())), rejected)
    assert [f for f, _ in out.frames] == list(frames)
    for f, rows in out.frames:
        assert rows.shape == (len(frames[f]), 5)
        assert np.array_equal(rows, np.array(frames[f])), f


class TestIngestOracle:
    """The array parsers against the per-record rule, on hostile random input."""

    @pytest.mark.parametrize("seed", range(5))
    def test_mot(self, seed):
        records = random_records(seed)
        lines = [f"{f},-1,{a!r},{b!r},{w!r},{h!r},{c!r},-1,-1,-1" for f, a, b, w, h, c in records]
        out = parse_mot_detections(lines)
        assert_matches_reference(out, records, left_top=True)
        assert out.rejected > 50

    @pytest.mark.parametrize("seed", range(5))
    def test_jsonl(self, seed):
        records = random_records(100 + seed)
        lines = [json.dumps(dict(zip(("frame", "x", "y", "w", "h", "conf"), r)))
                 for r in records]
        out = parse_jsonl_detections(lines)
        assert_matches_reference(out, records, left_top=False)
        assert out.rejected > 50

    def test_frame_numbers_beyond_int64(self):
        big = 2**63 + 5
        records = [(big, 1.0, 2.0, 3.0, 4.0, 0.5), (3, 1.0, 2.0, 3.0, 4.0, 0.5),
                   (2**64 + 1, 5.0, 6.0, 7.0, 8.0, 0.5), (big, 9.0, 2.0, 3.0, 4.0, 0.5)]
        lines = [json.dumps(dict(zip(("frame", "x", "y", "w", "h", "conf"), r)))
                 for r in records]
        out = parse_jsonl_detections(lines)
        assert [f for f, _ in out.frames] == [3, big, 2**64 + 1]
        assert all(type(f) is int for f, _ in out.frames)
        assert out.last_frame == 2**64 + 1
        assert_matches_reference(out, records, left_top=False)
        mot = parse_mot_detections([f"{f},-1,{a},{b},{w},{h},{c}" for f, a, b, w, h, c in records])
        assert [f for f, _ in mot.frames] == [3, big, 2**64 + 1]
