import numpy as np
import pytest

from cctrack.evaluation import GroundTruthRecord
from cctrack.geometry import BoundingBox
from cctrack.io import (
    FormatError,
    read_detections,
    read_frames,
    read_ground_truth,
    read_pgm,
    write_detections,
    write_frames,
    write_ground_truth,
    write_pgm,
)

from conftest import det


class TestDetectionsJsonl:
    def test_well_formed_round_trip(self, tmp_path):
        records = [
            det(0, 1.5, 2.5, 11.5, 22.5, 0.75),
            det(0, 3.0, 4.0, 13.0, 24.0, 0.5, class_id=2),
            det(2, 0.1, 0.2, 5.3, 5.4, 1.0),
        ]
        path = tmp_path / "d.jsonl"
        write_detections(path, records)
        assert read_detections(path) == records

    def test_three_line_file_in_order(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n'
            '{"frame": 1, "bbox": [1, 1, 6, 6], "score": 0.6, "class": 0}\n'
            '{"frame": 1, "bbox": [2, 2, 7, 7], "score": 0.7, "class": 0}\n'
        )
        records = read_detections(path)
        assert [r.frame_index for r in records] == [0, 1, 1]
        assert records[1].bbox.x1 == 1 and records[2].bbox.x1 == 2  # tie keeps input order

    def test_empty_file_is_a_valid_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_detections(path) == []

    def test_out_of_range_score_names_line_and_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n'
            '{"frame": 0, "bbox": [0, 0, 5, 5], "score": 1.5, "class": 0}\n'
        )
        with pytest.raises(FormatError, match=r"d\.jsonl:2.*score"):
            read_detections(path)

    def test_out_of_order_frames_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"frame": 3, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n'
            '{"frame": 2, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n'
        )
        with pytest.raises(FormatError, match="out of order"):
            read_detections(path)

    def test_malformed_json_cites_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n{oops\n')
        with pytest.raises(FormatError, match=r"d\.jsonl:2"):
            read_detections(path)

    def test_missing_field_and_bad_types(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "class": 0}\n')
        with pytest.raises(FormatError, match="score"):
            read_detections(path)
        path.write_text('{"frame": 0.5, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        with pytest.raises(FormatError, match="frame"):
            read_detections(path)
        path.write_text('{"frame": 0, "bbox": [0, 0, 5], "score": 0.5, "class": 0}\n')
        with pytest.raises(FormatError, match="bbox"):
            read_detections(path)
        path.write_text('{"frame": 0, "bbox": [9, 0, 5, 5], "score": 0.5, "class": 0}\n')
        with pytest.raises(FormatError, match="bbox"):
            read_detections(path)

    def test_writer_is_deterministic(self, tmp_path):
        records = [det(1, 0.123456789, 2, 10, 20, 0.333), det(0, 5, 6, 7, 8, 0.9)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections(a, records)
        write_detections(b, records)
        assert a.read_bytes() == b.read_bytes()


class TestGroundTruthCsv:
    def test_round_trip_preserves_values(self, tmp_path):
        records = [
            GroundTruthRecord(0, BoundingBox(1.25, 2.5, 11.125, 22.0625), 0),
            GroundTruthRecord(0, BoundingBox(30.1, 40.2, 50.3, 60.4), 1),
            GroundTruthRecord(1, BoundingBox(0.0, 0.0, 9.0, 9.0), 0),
        ]
        path = tmp_path / "gt.csv"
        write_ground_truth(path, records)
        assert read_ground_truth(path) == records

    def test_header_required(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,0,0,0,5,5\n")
        with pytest.raises(FormatError, match="header"):
            read_ground_truth(path)

    def test_duplicate_identity_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "frame,object_id,x1,y1,x2,y2\n0,0,0,0,5,5\n0,0,1,1,6,6\n"
        )
        with pytest.raises(FormatError, match="duplicate"):
            read_ground_truth(path)

    def test_bad_numbers_cite_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,object_id,x1,y1,x2,y2\n0,0,a,0,5,5\n")
        with pytest.raises(FormatError, match=r"gt\.csv:2"):
            read_ground_truth(path)

    def test_inverted_box_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,object_id,x1,y1,x2,y2\n0,0,9,0,5,5\n")
        with pytest.raises(FormatError, match="invalid box"):
            read_ground_truth(path)


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(13, 17)).astype(np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        assert np.array_equal(read_pgm(path), frame)

    def test_header_contents(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_ascii_p2_supported(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 1 2\n3 4 5\n")
        assert np.array_equal(read_pgm(path), np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8))

    def test_frames_dir_round_trip(self, tmp_path, rng):
        frames = [rng.integers(0, 256, size=(8, 9)).astype(np.uint8) for _ in range(4)]
        write_frames(tmp_path / "frames", frames)
        loaded = read_frames(tmp_path / "frames")
        assert len(loaded) == 4
        assert all(np.array_equal(a, b) for a, b in zip(frames, loaded))

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"JFIF....")
        with pytest.raises(FormatError, match="PGM"):
            read_pgm(path)

    def test_negative_width_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n-2 10\n255\n" + bytes(20))
        with pytest.raises(FormatError, match=r"f\.pgm.*positive integers"):
            read_pgm(path)

    def test_zero_size_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n0 10\n255\n")
        with pytest.raises(FormatError, match=r"f\.pgm.*positive integers"):
            read_pgm(path)

    def test_non_numeric_width_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\nab 10\n255\n" + bytes(20))
        with pytest.raises(FormatError, match=r"f\.pgm.*positive integers"):
            read_pgm(path)

    def test_short_p5_raster_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + bytes(11))
        with pytest.raises(FormatError, match=r"f\.pgm.*11 bytes, expected 12"):
            read_pgm(path)

    def test_p2_sample_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n2 1\n255\n7 256\n")
        with pytest.raises(FormatError, match=r"f\.pgm.*samples"):
            read_pgm(path)
