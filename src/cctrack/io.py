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
import math
import re
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .evaluation import GroundTruthRecord
from .geometry import BoundingBox, Detection

PathLike = Union[str, Path]

GROUND_TRUTH_HEADER = ["frame", "object_id", "x1", "y1", "x2", "y2"]
TRAJECTORY_HEADER = ["track_id", "frame", "cx", "cy"]

# Text readers decode with errors="surrogateescape", which maps each byte
# that is not valid UTF-8 to one of these lone surrogates.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class FormatError(ValueError):
    """A file failed schema validation; the message names line and field."""


def _fail(path: PathLike, line: int, message: str) -> None:
    raise FormatError(f"{path}:{line}: {message}")


def _utf8_lines(handle, path: PathLike):
    """The lines of a text handle, failing on the first byte that is not UTF-8."""
    for line_no, line in enumerate(handle, start=1):
        if not line.isascii():
            bad = _UNDECODABLE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                _fail(path, line_no, f"not valid UTF-8 (byte 0x{byte:02x})")
        yield line


def _require_number(value, path: PathLike, line: int, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, line, f"field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        _fail(path, line, f"field {field!r} is out of the float range")
    if not math.isfinite(number):
        _fail(path, line, f"field {field!r} must be finite, got {value!r}")
    return number


def _require_int(value, path: PathLike, line: int, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, line, f"field {field!r} must be an integer, got {value!r}")
    return value


def read_detections(path: PathLike) -> list[Detection]:
    """Parse and validate a detection JSONL file.

    Rejects malformed JSON, missing or mistyped fields, scores outside
    [0, 1], invalid boxes, and frames out of (non-decreasing) order, always
    citing the offending line.
    """
    detections: list[Detection] = []
    previous_frame = -1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(_utf8_lines(handle, path), start=1):
            line = line.strip()
            if not line:
                continue
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

            frame = _require_int(obj["frame"], path, line_no, "frame")
            if frame < 0:
                _fail(path, line_no, f"field 'frame' must be non-negative, got {frame}")
            if frame < previous_frame:
                _fail(
                    path,
                    line_no,
                    f"field 'frame' out of order: {frame} after {previous_frame}",
                )
            previous_frame = frame

            bbox = obj["bbox"]
            if not isinstance(bbox, list) or len(bbox) != 4:
                _fail(path, line_no, "field 'bbox' must be a 4-element [x1, y1, x2, y2] list")
            coords = [_require_number(v, path, line_no, "bbox") for v in bbox]

            score = _require_number(obj["score"], path, line_no, "score")
            if not (0.0 <= score <= 1.0):
                _fail(path, line_no, f"field 'score' must be in [0, 1], got {score}")

            class_id = _require_int(obj["class"], path, line_no, "class")
            if class_id < 0:
                _fail(path, line_no, f"field 'class' must be non-negative, got {class_id}")

            try:
                box = BoundingBox(*coords)
            except ValueError as exc:
                _fail(path, line_no, f"field 'bbox' invalid: {exc}")
            detections.append(Detection(frame, box, score, class_id))
    return detections


def detection_record(det: Detection) -> dict:
    """The JSON object of one detection line: {"frame", "bbox", "score", "class"}."""
    return {
        "frame": det.frame_index,
        "bbox": list(det.bbox.as_tuple()),
        "score": det.confidence,
        "class": det.class_id,
    }


def write_detections(path: PathLike, detections: Iterable[Detection]) -> None:
    """Write detections as JSONL, sorted by frame with input order preserved."""
    records = sorted(enumerate(detections), key=lambda pair: (pair[1].frame_index, pair[0]))
    with open(path, "w", encoding="utf-8") as handle:
        for _, det in records:
            handle.write(json.dumps(detection_record(det)))
            handle.write("\n")


def _csv_rows(handle, path: PathLike):
    """The rows of a CSV text handle; a csv.Error becomes a FormatError at its line."""
    reader = csv.reader(_utf8_lines(handle, path))
    try:
        yield from reader
    except csv.Error as exc:
        _fail(path, reader.line_num, f"malformed CSV: {exc}")


def read_ground_truth(path: PathLike) -> list[GroundTruthRecord]:
    """Parse and validate a ground-truth CSV ((frame, object_id) unique)."""
    records: list[GroundTruthRecord] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = _csv_rows(handle, path)
        header = next(reader, None)
        if header != GROUND_TRUTH_HEADER:
            _fail(path, 1, f"header must be {','.join(GROUND_TRUTH_HEADER)}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                _fail(path, line_no, f"expected 6 columns, got {len(row)}")
            try:
                frame = int(row[0])
                object_id = int(row[1])
            except ValueError:
                _fail(path, line_no, "fields 'frame' and 'object_id' must be integers")
            try:
                coords = [float(v) for v in row[2:]]
            except ValueError:
                _fail(path, line_no, "box coordinates must be numbers")
            if frame < 0 or object_id < 0:
                _fail(path, line_no, "'frame' and 'object_id' must be non-negative")
            key = (frame, object_id)
            if key in seen:
                _fail(path, line_no, f"duplicate (frame, object_id) pair {key}")
            seen.add(key)
            try:
                box = BoundingBox(*coords)
            except ValueError as exc:
                _fail(path, line_no, f"invalid box: {exc}")
            records.append(GroundTruthRecord(frame, box, object_id))
    return records


def write_ground_truth(path: PathLike, records: Iterable[GroundTruthRecord]) -> None:
    """Write ground truth as CSV sorted by (frame, object_id)."""
    ordered = sorted(records, key=lambda r: (r.frame_index, r.object_id))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(GROUND_TRUTH_HEADER)
        for record in ordered:
            writer.writerow(
                [
                    record.frame_index,
                    record.object_id,
                    repr(record.bbox.x1),
                    repr(record.bbox.y1),
                    repr(record.bbox.x2),
                    repr(record.bbox.y2),
                ]
            )


def write_pgm(path: PathLike, frame: np.ndarray) -> None:
    """Write one grayscale frame as binary (P5) PGM, maxval 255."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2D, got shape {frame.shape}")
    if np.issubdtype(frame.dtype, np.integer):
        # rint would turn 8-bit input into float16, which numpy emulates slowly.
        data = np.clip(frame, 0, 255).astype(np.uint8)
    else:
        data = np.clip(np.rint(frame), 0, 255).astype(np.uint8)
    height, width = data.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(data.tobytes())


def read_pgm(path: PathLike) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM into a uint8 array."""
    with open(path, "rb") as handle:
        blob = handle.read()
    tokens: list[bytes] = []
    pos = 0
    # Header = 4 whitespace-separated tokens, '#' comments allowed.
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
        if len(blob) - pos < count:
            raise FormatError(
                f"{path}: raster has {max(len(blob) - pos, 0)} bytes, expected {count}"
            )
        raster = np.frombuffer(blob, dtype=np.uint8, count=count, offset=pos)
    else:
        values = blob[pos:].split()
        if len(values) != count:
            raise FormatError(f"{path}: expected {count} samples, got {len(values)}")
        try:
            samples = [int(v) if v.isdigit() else -1 for v in values]
        except ValueError:  # more digits than int() converts
            samples = [-1]
        if not all(0 <= v <= maxval for v in samples):
            raise FormatError(f"{path}: samples must be integers in [0, {maxval}]")
        raster = np.array(samples, dtype=np.uint8)
    return raster.reshape((height, width)).copy()


def frame_file_name(index: int) -> str:
    return f"frame_{index:06d}.pgm"


def write_frames(directory: PathLike, frames: Sequence[np.ndarray]) -> list[Path]:
    """Write frames as frames/frame_NNNNNN.pgm; index order is frame order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, frame in enumerate(frames):
        target = directory / frame_file_name(index)
        write_pgm(target, frame)
        paths.append(target)
    return paths


def read_frames(directory: PathLike) -> list[np.ndarray]:
    """Read all *.pgm files in a directory, sorted by name, as frames 0..n-1.

    The directory must hold at least one frame, and every frame must have
    the shape of the first.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"{directory}: not a directory")
    paths = sorted(directory.glob("*.pgm"))
    if not paths:
        raise FormatError(f"{directory}: no *.pgm frames")
    frames = []
    for path in paths:
        frame = read_pgm(path)
        if frames and frame.shape != frames[0].shape:
            raise FormatError(
                f"{path}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                f"but {paths[0].name} is {frames[0].shape[1]}x{frames[0].shape[0]}"
            )
        frames.append(frame)
    return frames
