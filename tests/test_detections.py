"""Detection ingest tests: format arithmetic, grouping, rejection accounting."""

from __future__ import annotations

import json

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
        frame, records = out.frames[0]
        assert frame == 1
        box = records[0].bbox
        assert (box.cx, box.cy, box.w, box.h, box.conf) == (125.0, 250.0, 50.0, 100.0, 0.9)

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
        assert [r.bbox.cx for r in frame1] == [12.5, 22.5]  # in-file order kept

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
        frame, records = out.frames[0]
        assert frame == 3
        assert records[0].bbox.cx == 12.0  # x, y already center format

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

    @pytest.mark.parametrize("frame", ["Infinity", "NaN", "1e400"])
    def test_non_finite_frame_reports_line_number(self, frame):
        line = f'{{"frame": {frame}, "x": 0, "y": 0, "w": 4, "h": 8, "conf": 0.5}}'
        with pytest.raises(DetectionParseError) as exc:
            parse_jsonl_detections(["", line])
        assert exc.value.line_no == 2

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
        assert parse_mot_detections(mot_lines) == parse_jsonl_detections(jsonl_lines)


class TestDispatch:
    def test_known_formats(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,-1,0,0,5,5,0.5,-1,-1,-1\n")
        assert parse_detections(str(path), "mot").accepted == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_detections([], "csv")
