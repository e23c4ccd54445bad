import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cctrack import io
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
from oracles import read_detections_reference


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

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(
            b'{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n'
            b'{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": "\xff"}\n'
        )
        with pytest.raises(FormatError, match=r"d\.jsonl:2: not valid UTF-8 \(byte 0xff\)"):
            read_detections(path)

    def test_deep_nesting_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n" + "[" * 100_000 + "\n")
        with pytest.raises(FormatError, match=r"d\.jsonl:2: malformed JSON"):
            read_detections(path)

    def test_integer_beyond_float_range_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame": 0, "bbox": [0, 0, 5, ' + "9" * 400 + '], "score": 0.5, "class": 0}\n')
        with pytest.raises(FormatError, match=r"d\.jsonl:1: field 'bbox' is out of the float range"):
            read_detections(path)

    def test_integer_past_the_digit_limit_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame": 0, "bbox": [0, 0, 5, ' + "9" * 5000 + '], "score": 0.5, "class": 0}\n')
        with pytest.raises(FormatError, match=r"d\.jsonl:1: malformed JSON"):
            read_detections(path)

    def test_writer_is_deterministic(self, tmp_path):
        records = [det(1, 0.123456789, 2, 10, 20, 0.333), det(0, 5, 6, 7, 8, 0.9)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections(a, records)
        write_detections(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_writer_sorts_by_frame_with_ties_in_input_order(self, tmp_path):
        records = [det(2, 0, 0, 5, 5), det(0, 1, 1, 6, 6), det(2, 2, 2, 7, 7), det(0, 3, 3, 8, 8)]
        path = tmp_path / "d.jsonl"
        write_detections(path, iter(records))
        assert read_detections(path) == [records[1], records[3], records[0], records[2]]


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_coordinates_round_trip(self, tmp_path, dtype):
        coords = [dtype(v) for v in (0.1, 2.5, 30.7, 40.25)]
        path = tmp_path / "gt.csv"
        write_ground_truth(path, [GroundTruthRecord(3, BoundingBox(*coords), 7)])
        assert "np." not in path.read_text()
        (record,) = read_ground_truth(path)
        assert (record.frame_index, record.object_id) == (3, 7)
        # Each coordinate reads back as the same value in its own precision.
        assert [dtype(v) for v in record.bbox.as_tuple()] == coords

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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1_0,0,0,0,5,5", "fields 'frame' and 'object_id' must be integers"),
            ("0,1_0,0,0,5,5", "fields 'frame' and 'object_id' must be integers"),
            ("\u0663,0,0,0,5,5", "fields 'frame' and 'object_id' must be integers"),
            ("0,0,1_0.5,0,15,5", "box coordinates must be numbers"),
            ("0,0,0,0,5,\u0665", "box coordinates must be numbers"),
            ("0,0,0,0,5,\uff15", "box coordinates must be numbers"),
        ],
        ids=["underscore-frame", "underscore-id", "arabic-indic-frame", "underscore-coord",
             "arabic-indic-coord", "fullwidth-coord"],
    )
    def test_underscored_and_non_ascii_numbers_rejected(self, tmp_path, row, message):
        # int('1_0') is 10, float('1_0.5') is 10.5 and int('\u0663') is 3.
        path = tmp_path / "gt.csv"
        path.write_text(f"frame,object_id,x1,y1,x2,y2\n0,1,0,0,5,5\n{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"gt\.csv:3: {message}$"):
            read_ground_truth(path)

    def test_first_bad_field_names_the_error(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,object_id,x1,y1,x2,y2\nx,0,1_0,0,5,5\n")
        with pytest.raises(FormatError, match="must be integers"):
            read_ground_truth(path)

    def test_inverted_box_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,object_id,x1,y1,x2,y2\n0,0,9,0,5,5\n")
        with pytest.raises(FormatError, match="invalid box"):
            read_ground_truth(path)

    @pytest.mark.parametrize("bad_row", ["1,0,5,5,1,1", '"1\n",0,5,5,1,1'], ids=["plain", "quoted"])
    def test_rows_after_a_quoted_newline_cite_the_line_they_start_on(self, tmp_path, bad_row):
        path = tmp_path / "gt.csv"
        path.write_text(f'frame,object_id,x1,y1,x2,y2\n"0\n",0,1,2,3,4\n{bad_row}\n')
        with pytest.raises(FormatError, match=r"gt\.csv:4: invalid box"):
            read_ground_truth(path)

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_bytes(b"frame,object_id,x1,y1,x2,y2\n0,0,0,0,5,5\n0,1,0,0,5,\xc35\n")
        with pytest.raises(FormatError, match=r"gt\.csv:3: not valid UTF-8 \(byte 0xc3\)"):
            read_ground_truth(path)

    def test_oversized_field_names_the_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text('frame,object_id,x1,y1,x2,y2\n0,0,0,0,5,5\n"' + "x" * 200_000 + "\n")
        with pytest.raises(FormatError, match=r"gt\.csv:3: malformed CSV"):
            read_ground_truth(path)


def _old_pgm_raster(frame):
    """Reference conversion for any dtype: round half to even, clip, narrow."""
    return np.clip(np.rint(frame), 0, 255).astype(np.uint8).tobytes()


class TestPgm:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_integer_frames_write_the_rounded_clipped_bytes(self, tmp_path, rng, dtype):
        info = np.iinfo(dtype)
        frame = rng.integers(info.min, info.max, size=(9, 11), dtype=dtype, endpoint=True)
        # The dtype's extremes and the first values outside [0, 255] it can hold.
        frame[0, :4] = [info.min, -1 if info.min else 0, 256 if info.max > 255 else 255, info.max]
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        assert path.read_bytes() == b"P5\n11 9\n255\n" + _old_pgm_raster(frame)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_frames_round_half_to_even_then_clip(self, tmp_path, dtype):
        frame = np.array([[-0.5, 0.5, 1.5, 2.5, 254.5, 255.5, -3.0, 300.0]], dtype=dtype)
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        raster = path.read_bytes()[len(b"P5\n8 1\n255\n"):]
        assert raster == _old_pgm_raster(frame) == bytes([0, 0, 2, 2, 254, 255, 0, 255])

    def test_8bit_frame_is_written_from_its_own_buffer(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(960, 1280), dtype=np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)  # the first call's imports and caches are not counted
        tracemalloc.start()
        try:
            write_pgm(path, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frame.nbytes // 2
        assert path.read_bytes() == b"P5\n1280 960\n255\n" + _old_pgm_raster(frame)

    @pytest.mark.parametrize("view", ["strided", "transposed", "fortran-order", "read-only"])
    def test_8bit_views_write_their_own_bytes(self, tmp_path, rng, view):
        base = rng.integers(0, 256, size=(12, 20), dtype=np.uint8)
        if view == "strided":
            frame = base[1::2, ::3]
        elif view == "transposed":
            frame = base.T
        elif view == "fortran-order":
            frame = np.asfortranarray(base)
        else:
            frame = base.copy()
            frame.flags.writeable = False
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        height, width = frame.shape
        assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + _old_pgm_raster(frame)

    def test_round_trip(self, tmp_path, rng):
        frame = rng.integers(0, 256, size=(13, 17)).astype(np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(path, frame)
        assert np.array_equal(read_pgm(path), frame)

    def test_header_contents(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    @pytest.mark.parametrize("comment", [4080, 4083, 4084, 4085, 4096, 5000])
    def test_header_past_the_first_read(self, tmp_path, comment):
        # read_pgm parses the header from the first 4096 bytes when it can;
        # a header running past them, whole or mid-token, parses the same.
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n#" + b"c" * comment + b"\n3 2\n255\n" + bytes(range(6)))
        assert np.array_equal(read_pgm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))
        path.write_text("P2\n#" + "c" * comment + "\n3 2\n255\n0 1 2\n3 4 5\n")
        assert np.array_equal(read_pgm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))

    def test_ascii_p2_supported(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 1 2\n3 4 5\n")
        assert np.array_equal(read_pgm(path), np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8))

    def test_frames_dir_round_trip(self, tmp_path, rng):
        frames = [rng.integers(0, 256, size=(8, 9)).astype(np.uint8) for _ in range(4)]
        write_frames(tmp_path / "frames", frames)
        loaded = list(read_frames(tmp_path / "frames"))
        assert len(loaded) == 4
        assert all(np.array_equal(a, b) for a, b in zip(frames, loaded))

    def test_frame_one_million_follows_frame_999999(self, tmp_path):
        # Past six digits the writer's names are longer, and sort before by name.
        frames = tmp_path / "frames"
        frames.mkdir()
        write_pgm(frames / "frame_999999.pgm", np.full((4, 4), 1, dtype=np.uint8))
        write_pgm(frames / "frame_1000000.pgm", np.full((4, 4), 2, dtype=np.uint8))
        assert [int(frame[0, 0]) for frame in read_frames(frames)] == [1, 2]

    @pytest.mark.parametrize("names", [
        ["a.pgm", "frame_000009.pgm", "frame_000010.pgm", "frame_099999.pgm",
         "frame_100000.pgm", "frame_999999.pgm", "z.pgm"],
        # Numbers equal but for leading zeros.
        ["frame_01.pgm", "frame_1.pgm"],
    ])
    def test_frames_keep_name_order_below_one_million(self, tmp_path, names):
        frames = tmp_path / "frames"
        frames.mkdir()
        for value, name in reversed(list(enumerate(names))):
            write_pgm(frames / name, np.full((2, 2), value, dtype=np.uint8))
        assert [int(frame[0, 0]) for frame in read_frames(frames)] == list(range(len(names)))

    def test_frames_of_another_shape_rejected(self, tmp_path, rng):
        frames = [rng.integers(0, 256, size=(12, 16)).astype(np.uint8) for _ in range(3)]
        paths = write_frames(tmp_path / "frames", frames)
        write_pgm(paths[2], np.zeros((5, 6), dtype=np.uint8))
        with pytest.raises(FormatError, match=r"frame_000002\.pgm: frame is 6x5, but .* is 16x12"):
            list(read_frames(tmp_path / "frames"))

    def test_frames_dir_without_pgm_rejected(self, tmp_path):
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "notes.txt").write_text("no frames here")
        with pytest.raises(FormatError, match=r"frames: no \*\.pgm frames"):
            list(read_frames(tmp_path / "frames"))

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

    def test_integers_past_the_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P5\n" + "9" * 5000 + " 1\n255\n")
        with pytest.raises(FormatError, match=r"f\.pgm.*positive integers"):
            read_pgm(path)
        path.write_text("P2\n2 1\n255\n7 " + "0" * 5000 + "\n")
        with pytest.raises(FormatError, match=r"f\.pgm.*samples"):
            read_pgm(path)


# Any byte string either parses or raises FormatError. Random bytes rarely
# get past the first check, so most examples splice random bytes into or
# after a well-formed start.
_DETECTION_LINE = b'{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n'
_GROUND_TRUTH_START = b"frame,object_id,x1,y1,x2,y2\n0,0,0,0,5,5\n"
_PGM_STARTS = (b"P5\n3 2\n255\n", b"P2\n3 2\n255\n", b"P5 1 1 255 ", b"P2\n# c\n2 1\n255\n0 ")
_TEXT_PIECES = (
    b"0", b"1", b"-1", b"0.5", b"1e400", b"NaN", b"9" * 30, b",", b"\n", b"\r", b'"', b"[", b"]",
    b"{", b"}", b":", b" ", b'"frame"', b'"bbox"', b'"score"', b'"class"', b"true", b"null",
    b"\xff", b"\xc3", b"\xc3\xa9", b"\x00", b"#", b"P5", b"255", b"256",
)


def _spliced(starts):
    """Random bytes, or a well-formed start, cut short or whole, then random pieces."""
    pieces = st.lists(st.one_of(st.sampled_from(_TEXT_PIECES), st.binary(max_size=4)), max_size=25)
    return st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda start, cut, tail: start[:cut] + b"".join(tail),
            st.sampled_from(starts),
            st.integers(0, 200),
            pieces,
        ),
    )


def _parses_or_format_error(reader, path, blob):
    path.write_bytes(blob)
    try:
        reader(path)
    except FormatError:
        pass


@pytest.fixture(scope="class")
def input_file(tmp_path_factory):
    """One file that every example of a test overwrites."""
    return tmp_path_factory.mktemp("any-bytes") / "input"


class TestAnyBytes:
    @settings(max_examples=300, deadline=None)
    @given(_spliced((_DETECTION_LINE, _DETECTION_LINE * 2, b'{"frame": 0, "bbox": [')))
    def test_read_detections(self, input_file, blob):
        _parses_or_format_error(read_detections, input_file, blob)

    @settings(max_examples=300, deadline=None)
    @given(_spliced((_GROUND_TRUTH_START, b"frame,object_id,x1,y1,x2,y2\n")))
    def test_read_ground_truth(self, input_file, blob):
        _parses_or_format_error(read_ground_truth, input_file, blob)

    @settings(max_examples=300, deadline=None)
    @given(_spliced(_PGM_STARTS))
    def test_read_pgm(self, input_file, blob):
        _parses_or_format_error(read_pgm, input_file, blob)


# Values at and past each bound the fast path tests, and values of other
# types. The validator takes some of them (ints as coordinates or scores,
# frames past 2**53) and rejects the rest, each with its own message.
_ANY = ("true", "null", '"0"', "[]", "{}", "NaN", "Infinity", "-Infinity", "1e400")
_INTEGERS = ("-1", "0", "1.0", str(2**53 - 1), str(2**53), str(2**1024), "-" + str(2**1100))
_ODD_VALUES = {
    "frame": _ANY + _INTEGERS,
    "class": _ANY + _INTEGERS,
    "score": _ANY + ("-0.5", "-0.0", "0", "1", "1.5", "1.0000000000000002", "-1e400"),
    "bbox": _ANY + (
        "0", "3", "-0.0", "-1e400", "9007199254740992.0", "9007199254740994.0",
        "-9007199254740992.0", "-9007199254740994.0", str(2**53 + 1), str(-(2**53) - 1), str(2**1024),
    ),
}
_COORDINATES = st.one_of(
    st.floats(-20, 20, width=16),
    st.sampled_from((0.0, -0.0, 2.0**53, -(2.0**53), 2.0**53 - 1, -(2.0**53) + 1, 1e-300)),
)
_MUTATIONS = (
    "value", "value", "value", "inverted", "inverted", "extra key", "duplicate key", "missing key",
    "two objects", "comma-joined", "cut", "BOM", "padding", "not UTF-8", "blank", "not an object",
    "nested",
)


def _record(frame, bbox, score="0.5", class_id=0) -> bytes:
    return f'{{"frame": {frame}, "bbox": {bbox}, "score": {score}, "class": {class_id}}}\n'.encode()


@st.composite
def _detection_line(draw, frame):
    """One line of a detection file: a valid record, or one mutated as _MUTATIONS name."""
    x1, x2 = sorted(draw(st.lists(_COORDINATES, min_size=2, max_size=2)))
    y1, y2 = sorted(draw(st.lists(_COORDINATES, min_size=2, max_size=2)))
    fields = {
        "frame": str(frame),
        "bbox": [repr(x1), repr(y1), repr(x2), repr(y2)],
        "score": repr(draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))),
        "class": str(draw(st.integers(0, 2))),
    }
    mutation = draw(st.sampled_from(_MUTATIONS)) if draw(st.integers(0, 3)) == 0 else None
    if mutation == "value":
        key = draw(st.sampled_from(("frame", "bbox", "score", "class")))
        if key == "bbox":
            fields["bbox"][draw(st.integers(0, 3))] = draw(st.sampled_from(_ODD_VALUES["bbox"]))
        else:
            fields[key] = draw(st.sampled_from(_ODD_VALUES[key]))
    elif mutation == "inverted":  # x2 below x1, y2 below y1 or both, by as little as one ulp
        for i in draw(st.sampled_from(((0,), (1,), (0, 1)))):
            below = math.nextafter((x1, y1)[i], -math.inf) - draw(st.sampled_from((0.0, 0.5, 7.0)))
            fields["bbox"][i + 2] = repr(below)
    fields["bbox"] = "[" + ", ".join(fields["bbox"]) + "]"
    if mutation == "missing key":
        del fields[draw(st.sampled_from(sorted(fields)))]
    text = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"
    if mutation == "extra key":
        text = text[:-1] + ', "note": [1, {"frame": -1}]}'
    elif mutation == "duplicate key":
        key = draw(st.sampled_from(("frame", "bbox", "score", "class")))
        text = f'{{"{key}": {draw(st.sampled_from(_ODD_VALUES["frame"]))}, ' + text[1:]
    elif mutation == "two objects":
        text += " " + text
    elif mutation == "comma-joined":
        text += ", " + text
    elif mutation == "cut":
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "\n" + text[cut:]
    elif mutation == "BOM":
        text = "\ufeff" + text
    elif mutation == "padding":
        text = draw(st.sampled_from(("\x0b", "\u00a0", " \t"))) + text + "\u00a0\x0b"
    elif mutation == "blank":
        text = draw(st.sampled_from(("", "   ", "\t")))
    elif mutation == "not an object":
        text = draw(st.sampled_from(("[1, 2]", "3", '"frame"', "null")))
    elif mutation == "nested":
        text = "[" * 5000
    blob = text.encode("utf-8")
    if mutation == "not UTF-8":
        cut = draw(st.integers(0, len(blob)))
        blob = blob[:cut] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80"))) + blob[cut:]
    return blob


@st.composite
def _detection_files(draw):
    """Mostly valid records in frame order, with some lines mutated or two frames swapped."""
    frames = sorted(draw(st.lists(st.integers(0, 4), max_size=8)))
    if len(frames) > 1 and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(frames) - 2))
        frames[i], frames[i + 1] = frames[i + 1], frames[i]
    return b"".join(draw(_detection_line(frame)) + b"\n" for frame in frames)


def _outcome(reader, path):
    try:
        return [repr(detection) for detection in reader(path)]
    except Exception as exc:
        return type(exc), str(exc)


class TestReaderAgainstReference:
    """The fast path takes a line only as the reader before it would have."""

    @settings(max_examples=400, deadline=None)
    @given(_detection_files())
    @example(_record(0, "[5.0, 0.0, 4.999999999999999, 1.0]"))
    @example(_record(0, "[0.0, 5.0, 1.0, 4.999999999999999]"))
    @example(_record(0, "[-9007199254740994.0, 0.0, 1.0, 1.0]"))
    @example(_record(0, "[0.0, 0.0, 1.0, 9007199254740994.0]"))
    @example(_record(-1, "[0.0, 0.0, 1.0, 1.0]"))
    @example(_record(0, "[0.0, 0.0, 1.0, 1.0]", "-0.5"))
    @example(_record(0, "[0.0, 0.0, 1.0, 1.0]", "1.0000000000000002"))
    @example(_record(0, "[0.0, 0.0, 1.0, 1.0]", class_id=-1))
    @example(_record(0, "[0, 0, 5, 5]", "1") + _record(0, "[0.0, NaN, 5.0, 5.0]"))
    @example(_record(2**53, "[0.0, 0.0, 1.0, 1.0]", class_id=2**60) + _record(1, "[0.0, 0.0, 1.0, 1.0]"))
    @example(  # lines that decode as valid records only if joined by commas
        b'{"frame": 0, "bbox": [1\n2, 3, 4], "score": 1.0, "class": 0}\n'
        + _record(0, "[0.0, 0.0, 1.0, 1.0]").replace(b"\n", b", ") + b"{}\n"
    )
    def test_equal_detections_or_identical_format_error(self, input_file, blob):
        input_file.write_bytes(blob)
        expected = _outcome(read_detections_reference, input_file)
        assert _outcome(read_detections, input_file) == expected
        assert isinstance(expected, list) or expected[0] is FormatError

    def test_written_records_never_reach_the_validator(self, tmp_path, monkeypatch):
        records = [det(f // 3, 0.5 * f, -1.0, 0.5 * f + 3.25, 9.5, (f % 9) / 8, f % 2) for f in range(30)]
        path = tmp_path / "d.jsonl"
        write_detections(path, records)
        expected = read_detections_reference(path)
        monkeypatch.setattr(io, "_read_detection", None)
        assert read_detections(path) == expected == records
