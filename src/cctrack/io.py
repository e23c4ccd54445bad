"""File formats: detection JSONL, ground-truth CSV, and PGM frames.

Detections travel as one JSON object per line ({"frame", "bbox", "score",
"class"}), sorted by frame with ties in input order — streamable and
append-friendly. Ground truth and reports are CSV for spreadsheet use.
Frames are 8-bit binary PGM. All text is UTF-8. Writers are deterministic:
the same records always produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import re
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

from .evaluation import GroundTruthRecord
from .geometry import BoundingBox, Detection, require_number

if TYPE_CHECKING:
    import numpy as np

PathLike = Union[str, Path]

GROUND_TRUTH_HEADER = ["frame", "object_id", "x1", "y1", "x2", "y2"]
TRAJECTORY_HEADER = ["track_id", "frame", "cx", "cy"]

# Text readers decode with errors="surrogateescape", which maps each byte
# that is not valid UTF-8 to one of these lone surrogates.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class FormatError(ValueError):
    """A file failed schema validation; the message names line and field."""


def format_number(value) -> str:
    """An output number: the shortest round-trip form of a float, numpy float64 too, else str.

    For a builtin int that is not a bool and for a finite float this is
    exactly what json.dumps writes, since its encoder uses int.__repr__ and
    float.__repr__ too.
    """
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _fail(path: PathLike, line: int, message: str) -> None:
    raise FormatError(f"{path}:{line}: {message}")


def _read_box(path: PathLike, line: int, coords: list[float], invalid: str) -> BoundingBox:
    """The box of one line's coordinates; a bad box fails as '{invalid}: {why}'."""
    try:
        # Past 2**53 not every integer is a float, so no pixel grid lies there;
        # up to it the centroid, area and IoU union of any boxes stay finite.
        if max(coords) > 2.0**53 or min(coords) < -(2.0**53):
            raise ValueError(f"a coordinate is beyond 2**53 in magnitude: {coords}")
        return BoundingBox(*coords)
    except ValueError as exc:
        _fail(path, line, f"{invalid}: {exc}")


def _utf8_lines(handle, path: PathLike):
    """The lines of a text handle, failing on the first byte that is not UTF-8."""
    for line_no, line in enumerate(handle, start=1):
        if not line.isascii():
            bad = _UNDECODABLE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                _fail(path, line_no, f"not valid UTF-8 (byte 0x{byte:02x})")
        yield line


def _read_detection(path: PathLike, line_no: int, line: str, previous_frame: int) -> Detection:
    """Parse and validate one stripped detection line; frames before previous_frame fail."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        _fail(path, line_no, f"malformed JSON: {exc.msg}")
    except ValueError as exc:  # an integer literal past int_max_str_digits
        _fail(path, line_no, f"malformed JSON: {exc}")
    except RecursionError:
        _fail(path, line_no, "malformed JSON: nested too deeply")
    if not isinstance(obj, dict):
        _fail(path, line_no, "each line must be a JSON object")
    missing = {"frame", "bbox", "score", "class"} - obj.keys()
    if missing:
        _fail(path, line_no, f"missing field(s): {sorted(missing)}")

    try:
        frame = require_number("field 'frame'", obj["frame"], integral=True)
        if frame < 0:
            raise ValueError(f"field 'frame' must be non-negative, got {frame}")
        if frame < previous_frame:
            raise ValueError(f"field 'frame' out of order: {frame} after {previous_frame}")
        bbox = obj["bbox"]
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ValueError("field 'bbox' must be a 4-element [x1, y1, x2, y2] list")
        coords = [float(require_number("field 'bbox'", v)) for v in bbox]
        score = float(require_number("field 'score'", obj["score"]))
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"field 'score' must be in [0, 1], got {score}")
        class_id = require_number("field 'class'", obj["class"], integral=True)
        if class_id < 0:
            raise ValueError(f"field 'class' must be non-negative, got {class_id}")
    except (TypeError, ValueError) as exc:
        _fail(path, line_no, str(exc))
    box = _read_box(path, line_no, coords, "field 'bbox' invalid")
    return Detection(frame, box, score, class_id)


# The fast path below takes only values this validator passes unchanged:
# frames and classes that are ints below 2**53, coordinates and scores
# that are floats in range. Booleans, ints as coordinates or scores, NaN
# and infinities fail its exact type or range tests and go to the validator.
_LIMIT = 2.0**53


def read_detections(path: PathLike) -> list[Detection]:
    """Parse and validate a detection JSONL file.

    Rejects malformed JSON, missing or mistyped fields, scores outside
    [0, 1], invalid boxes, and frames out of (non-decreasing) order, always
    citing the offending line.

    A line the C scanner decodes whole into a record of exact builtin types
    in range is taken as it is; every other line goes through
    _read_detection, the one source of error messages.
    """
    detections: list[Detection] = []
    append = detections.append
    scan = json.JSONDecoder().scan_once
    # Frames are non-negative, so starting at 0 rejects what -1 would.
    previous_frame = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(_utf8_lines(handle, path), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = scan(line, 0)
                frame, bbox, score, class_id = obj["frame"], obj["bbox"], obj["score"], obj["class"]
            except (StopIteration, KeyError, TypeError, ValueError, RecursionError):
                end = -1  # not a whole JSON object with the four fields
            if (
                end == len(line)
                and type(frame) is int
                and previous_frame <= frame < 2**53
                and type(bbox) is list
                and len(bbox) == 4
                and type(score) is float
                and 0.0 <= score <= 1.0
                and type(class_id) is int
                and 0 <= class_id < 2**53
            ):
                x1, y1, x2, y2 = bbox
                if (
                    type(x1) is float
                    and type(y1) is float
                    and type(x2) is float
                    and type(y2) is float
                    and -_LIMIT <= x1 <= x2 <= _LIMIT
                    and -_LIMIT <= y1 <= y2 <= _LIMIT
                ):
                    previous_frame = frame
                    append(Detection(frame, BoundingBox(x1, y1, x2, y2), score, class_id))
                    continue
            detection = _read_detection(path, line_no, line, previous_frame)
            previous_frame = detection.frame_index
            append(detection)
    return detections


def detection_json(det: Detection) -> str:
    """One detection as JSON, {"frame", "bbox", "score", "class"}, in json.dumps's layout."""
    box = det.bbox
    return (
        f'{{"frame": {format_number(det.frame_index)}, "bbox": [{format_number(box.x1)}, '
        f"{format_number(box.y1)}, {format_number(box.x2)}, {format_number(box.y2)}], "
        f'"score": {format_number(det.confidence)}, "class": {format_number(det.class_id)}}}'
    )


def write_detections(path: PathLike, detections: Iterable[Detection]) -> None:
    """Write detections as JSONL, sorted by frame with input order preserved."""
    records = sorted(detections, key=attrgetter("frame_index"))  # stable: ties keep input order
    with open(path, "w", encoding="utf-8") as handle:
        for det in records:
            handle.write(f"{detection_json(det)}\n")


def _csv_rows(handle, path: PathLike):
    """(first line, row) for each CSV row; a csv.Error becomes a FormatError at its line."""
    reader = csv.reader(_utf8_lines(handle, path))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        _fail(path, reader.line_num, f"malformed CSV: {exc}")


_NOT_INTEGERS = "fields 'frame' and 'object_id' must be integers"
_NOT_NUMBERS = "box coordinates must be numbers"


def read_ground_truth(path: PathLike) -> list[GroundTruthRecord]:
    """Parse and validate a ground-truth CSV ((frame, object_id) unique)."""
    records: list[GroundTruthRecord] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        rows = _csv_rows(handle, path)
        _, header = next(rows, (1, None))
        if header != GROUND_TRUTH_HEADER:
            _fail(path, 1, f"header must be {','.join(GROUND_TRUTH_HEADER)}, got {header}")
        for line_no, row in rows:
            if not row:
                continue
            if len(row) != 6:
                _fail(path, line_no, f"expected 6 columns, got {len(row)}")
            try:
                frame = int(row[0])
                object_id = int(row[1])
            except ValueError:
                _fail(path, line_no, _NOT_INTEGERS)
            try:
                coords = list(map(float, row[2:]))
            except ValueError:
                _fail(path, line_no, _NOT_NUMBERS)
            # int() and float() also take underscores ('1_0' is 10) and non-ASCII digits.
            text = "".join(row)
            if "_" in text or not text.isascii():
                ids = row[0] + row[1]
                bad_ids = "_" in ids or not ids.isascii()
                _fail(path, line_no, _NOT_INTEGERS if bad_ids else _NOT_NUMBERS)
            if frame < 0 or object_id < 0:
                _fail(path, line_no, "'frame' and 'object_id' must be non-negative")
            key = (frame, object_id)
            if key in seen:
                _fail(path, line_no, f"duplicate (frame, object_id) pair {key}")
            seen.add(key)
            box = _read_box(path, line_no, coords, "invalid box")
            records.append(GroundTruthRecord(frame, box, object_id))
    return records


def write_ground_truth(path: PathLike, records: Iterable[GroundTruthRecord]) -> None:
    """Write ground truth as CSV sorted by (frame, object_id)."""
    ordered = sorted(records, key=lambda r: (r.frame_index, r.object_id))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(GROUND_TRUTH_HEADER) + "\n")
        for record in ordered:
            box = record.bbox
            handle.write(
                f"{format_number(record.frame_index)},{format_number(record.object_id)},"
                f"{format_number(box.x1)},{format_number(box.y1)},"
                f"{format_number(box.x2)},{format_number(box.y2)}\n"
            )


def write_pgm(path: PathLike, frame: np.ndarray) -> None:
    """Write one grayscale frame as binary (P5) PGM, maxval 255."""
    import numpy as np

    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2D, got shape {frame.shape}")
    if frame.dtype != np.uint8:  # an 8-bit frame is written from its own buffer
        # Integers skip rint, which would turn 8-bit input into slow float16.
        if not np.issubdtype(frame.dtype, np.integer):
            frame = np.rint(frame)
        frame = np.clip(frame, 0, 255).astype(np.uint8)
    height, width = frame.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(np.ascontiguousarray(frame))


# Bytes of a PGM read before its header is parsed. A longer header, such
# as one with long comments, is parsed from the whole file instead.
_PGM_HEADER_PEEK = 4096


def _pgm_header(blob: bytes) -> tuple[list[bytes], int]:
    """Up to 4 whitespace-separated header tokens, '#' comments skipped, and the offset after."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(blob):
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            tokens.append(blob[start:pos])
    return tokens, pos


def read_pgm(path: PathLike) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM into a uint8 array.

    A P5 raster is read from the file straight into the array returned.
    Between tracker updates on 1280x960 frames, reading the whole file and
    copying the raster out took about 1 ms a frame against 0.34 ms, mostly
    in page faults on the fresh buffer (2-vCPU VM).
    """
    import numpy as np

    with open(path, "rb") as handle:
        blob = handle.read(_PGM_HEADER_PEEK)
        tokens, pos = _pgm_header(blob)
        if pos >= len(blob) or tokens[:1] != [b"P5"]:
            # The header may go on past the peek, and P2 samples follow it.
            blob += handle.read()
            tokens, pos = _pgm_header(blob)
        if len(tokens) < 4 or tokens[0] not in (b"P5", b"P2"):
            raise FormatError(f"{path}: not a P2/P5 PGM file")
        try:
            width, height, maxval = (int(t) if t.isdigit() else 0 for t in tokens[1:4])
        except ValueError:  # more digits than int() converts
            width = height = maxval = 0
        if min(width, height, maxval) <= 0:
            header = b" ".join(tokens[1:4]).decode("ascii", "replace")
            raise FormatError(
                f"{path}: header width, height and maxval must be positive integers, got {header!r}"
            )
        if maxval != 255:
            raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
        count = width * height
        if tokens[0] == b"P5":
            pos += 1  # single whitespace byte after maxval
            available = os.fstat(handle.fileno()).st_size - pos
            if available >= count:
                raster = np.empty((height, width), dtype=np.uint8)
                handle.seek(pos)
                available = handle.readinto(raster)
            if available < count:
                raise FormatError(f"{path}: raster has {max(available, 0)} bytes, expected {count}")
            return raster
    values = blob[pos:].split()
    if len(values) != count:
        raise FormatError(f"{path}: expected {count} samples, got {len(values)}")
    try:
        samples = [int(v) if v.isdigit() else -1 for v in values]
    except ValueError:  # more digits than int() converts
        samples = [-1]
    if not all(0 <= v <= maxval for v in samples):
        raise FormatError(f"{path}: samples must be integers in [0, {maxval}]")
    return np.array(samples, dtype=np.uint8).reshape((height, width))


def frame_file_name(index: int) -> str:
    return f"frame_{index:06d}.pgm"


def write_frames(directory: PathLike, frames: Iterable[np.ndarray]) -> list[Path]:
    """Write frames as frames/frame_NNNNNN.pgm; index order is frame order.

    frames may be any iterable, such as the generator render_frames returns:
    each frame is written as it arrives, before the next one is drawn.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, frame in enumerate(frames):
        target = directory / frame_file_name(index)
        write_pgm(target, frame)
        paths.append(target)
    return paths


def _frame_order(path: Path) -> tuple[list, str]:
    """Sort key of a frame file: its name, with each run of digits compared as a number.

    So frame_1000000.pgm follows frame_999999.pgm, as the writer numbered
    them. Names that differ only in leading zeros keep name order.
    """
    parts: list = re.split(r"([0-9]+)", path.name)
    parts[1::2] = map(int, parts[1::2])
    return parts, path.name


def read_frames(directory: PathLike) -> Iterator[np.ndarray]:
    """Frames 0..n-1 from the *.pgm files of a directory, in _frame_order.

    The directory is checked at the call: it must hold at least one frame.
    The frames are read one at a time, as the iterator reaches them, and
    each must have the shape of the first.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"{directory}: not a directory")
    paths = sorted(directory.glob("*.pgm"), key=_frame_order)
    if not paths:
        raise FormatError(f"{directory}: no *.pgm frames")
    return _read_each(paths)


def _read_each(paths: Sequence[Path]) -> Iterator[np.ndarray]:
    first_shape = None
    for path in paths:
        frame = read_pgm(path)
        if first_shape is None:
            first_shape = frame.shape
        elif frame.shape != first_shape:
            raise FormatError(
                f"{path}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                f"but {paths[0].name} is {first_shape[1]}x{first_shape[0]}"
            )
        yield frame
