"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written the slow, obvious way (nested
loops, exhaustive enumeration) and never calls the implementation under
test. The convolution kernels have no oracle here: their properties live
once, in the six check_* functions of cctrack.selfcheck that back the
`convcheck` subcommand, and tests/test_kernels.py runs those checks at
seeds 0-4 and against planted kernel faults instead of re-deriving them.
The detection reader's oracle is the reader before its fast path, kept
word for word: every line through json.loads and the field checks.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cctrack.correlation import _PEAK_TIE_EPS, CorrelationResult, _raster_bounds
from cctrack.geometry import BoundingBox, Detection, euclidean, require_number
from cctrack.io import _fail, _read_box, _utf8_lines
from cctrack.tracker import AssociationResult


def _distance(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def best_gated_matching(existing, incoming, max_distance):
    """Exhaustively optimal matching: max cardinality, then min total distance.

    existing: [(track_id, (x, y))], incoming: [(index, (x, y))]. Returns
    (pairs, size, total) with pairs sorted.
    """
    best = {"size": -1, "total": float("inf"), "pairs": ()}

    def recurse(position, used_tracks, pairs, total):
        if position == len(incoming):
            size = len(pairs)
            better = size > best["size"] or (
                size == best["size"] and total < best["total"] - 1e-12
            )
            if better:
                best["size"] = size
                best["total"] = total
                best["pairs"] = tuple(sorted(pairs))
            return
        index, point = incoming[position]
        recurse(position + 1, used_tracks, pairs, total)
        for track_id, track_point in existing:
            if track_id in used_tracks:
                continue
            d = _distance(track_point, point)
            if d <= max_distance:
                recurse(
                    position + 1,
                    used_tracks | {track_id},
                    pairs + [(track_id, index)],
                    total + d,
                )

    recurse(0, frozenset(), [], 0.0)
    return best["pairs"], best["size"], best["total"]


def associate_reference(existing, incoming, max_distance):
    """tracker.associate with every (track, incoming) pair scored, no pruning."""
    if not max_distance > 0:
        raise ValueError(f"max_distance must be positive, got {max_distance}")
    candidates = []
    for track_id, track_point in existing:
        for index, point in incoming:
            d = euclidean(track_point, point)
            if d <= max_distance:
                candidates.append((d, track_id, index))
    candidates.sort()

    matches = []
    claimed_tracks = set()
    claimed_incoming = set()
    for _, track_id, index in candidates:
        if track_id in claimed_tracks or index in claimed_incoming:
            continue
        claimed_tracks.add(track_id)
        claimed_incoming.add(index)
        matches.append((track_id, index))

    unmatched_tracks = tuple(tid for tid, _ in existing if tid not in claimed_tracks)
    unmatched_incoming = tuple(idx for idx, _ in incoming if idx not in claimed_incoming)
    return AssociationResult(tuple(matches), unmatched_tracks, unmatched_incoming)


def _box_center(box):
    return ((box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0)


def check_lifecycle_update(config, entering, detections, update, live_after, registered_ever):
    """Assert every per-update lifecycle invariant of one detection update.

    entering maps each track id live before the update to its centroid;
    live_after is live_tracks() after it. registered_ever holds the ids
    registered by earlier updates and is extended with this update's.
    """
    kept = [
        d for d in detections
        if d.confidence >= config.confidence_threshold and d.class_id == config.person_class_id
    ]
    matched_ids = [tid for tid, _ in update.matched]
    # conservation over the kept detections and over the entering tracks
    assert len(update.matched) + len(update.registered) == len(kept)
    assert (
        len(update.matched) + len(update.disappeared_incremented) + len(update.deregistered)
        == len(entering)
    )
    # the event lists are pairwise disjoint
    ids = (matched_ids + list(update.registered)
           + list(update.disappeared_incremented) + list(update.deregistered))
    assert len(ids) == len(set(ids))
    assert set(matched_ids) <= entering.keys()
    assert set(update.deregistered) <= entering.keys()
    # every match was within the gate when paired
    for tid, det in update.matched:
        before = (entering[tid].x, entering[tid].y)
        assert _distance(before, _box_center(det.bbox)) <= config.max_distance + 1e-9
    for track in live_after:
        assert track.disappeared <= config.max_disappearance
        assert (track.centroid.x, track.centroid.y) == _box_center(track.bbox)
    # no id is ever reused
    registered_ever.extend(update.registered)
    assert len(registered_ever) == len(set(registered_ever))


def neighbor_counts_reference(xs, ys, radius):
    """For each person, how many others stand closer than radius, every ordered pair tested."""
    counts = []
    for i in range(len(xs)):
        count = 0
        for j in range(len(xs)):
            if i != j and math.hypot(xs[i] - xs[j], ys[i] - ys[j]) < radius:
                count += 1
        counts.append(count)
    return counts


def _interval_overlap(a_lo, a_hi, b_lo, b_hi):
    return max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))


def iou_reference(a, b):
    """IoU from corner tuples, via 1D interval overlaps."""
    inter = _interval_overlap(a[0], a[2], b[0], b[2]) * _interval_overlap(a[1], a[3], b[1], b[3])
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def greedy_match_reference(detections, ground_truth, iou_threshold):
    """Greedy IoU matching as the prose states it, scored by iou_reference.

    Detections in descending confidence (ties: input order) each claim the
    unmatched ground-truth box of highest IoU (ties: lowest index) if that
    IoU reaches the gate. Returns (tp, fp, fn).
    """
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    matched = [False] * len(ground_truth)
    tp = fp = 0
    for det_index in order:
        best_iou, best_gt = 0.0, None
        for gt_index, record in enumerate(ground_truth):
            if matched[gt_index]:
                continue
            overlap = iou_reference(detections[det_index].bbox.as_tuple(), record.bbox.as_tuple())
            if overlap > best_iou:
                best_iou, best_gt = overlap, gt_index
        if best_gt is not None and best_iou >= iou_threshold:
            matched[best_gt] = True
            tp += 1
        else:
            fp += 1
    return tp, fp, matched.count(False)


def max_assignment_tp(det_boxes, gt_boxes, iou_threshold):
    """Maximum number of detection-to-truth pairs achievable at the IoU gate,
    by exhaustive enumeration (small instances only)."""
    best = {"size": 0}

    def recurse(det_index, used_gt, size):
        if det_index == len(det_boxes):
            best["size"] = max(best["size"], size)
            return
        recurse(det_index + 1, used_gt, size)
        for gt_index, gt in enumerate(gt_boxes):
            if gt_index in used_gt:
                continue
            if iou_reference(det_boxes[det_index], gt) >= iou_threshold:
                recurse(det_index + 1, used_gt | {gt_index}, size + 1)

    recurse(0, frozenset(), 0)
    return best["size"]


def correlate_track_reference(
    prev_frame: np.ndarray,
    cur_frame: np.ndarray,
    bbox: BoundingBox,
    search_margin: int = 20,
) -> CorrelationResult:
    """The einsum NCC search that fast NCC replaced: every window summed directly.

    Searches offsets up to search_margin pixels per axis. A zero-variance
    (flat) patch has no correlation signal: the box is returned unchanged
    with the degenerate flag set. Raises ValueError if bbox falls outside
    the previous frame or the frames disagree in shape. Integer frames are
    summed exactly and rounded to float64 only in the final division, so
    8-bit scores are exact; other frames are summed in float64.
    """
    prev = np.asarray(prev_frame)
    cur = np.asarray(cur_frame)
    exact = prev.dtype.kind in "biu" and cur.dtype.kind in "biu"
    prev = prev.astype(np.int64 if exact else np.float64)
    cur = cur.astype(np.int64 if exact else np.float64)
    if prev.ndim != 2 or cur.ndim != 2:
        raise ValueError("frames must be 2D grayscale arrays")
    if prev.shape != cur.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {cur.shape}")
    if search_margin < 0:
        raise ValueError(f"search_margin must be non-negative, got {search_margin}")

    frame_h, frame_w = prev.shape
    x1, y1, x2, y2 = _raster_bounds(bbox)
    if x1 < 0 or y1 < 0 or x2 > frame_w or y2 > frame_h:
        raise ValueError(
            f"bbox raster ({x1}, {y1}, {x2}, {y2}) outside frame {frame_w}x{frame_h}"
        )

    template = prev[y1:y2, x1:x2]
    n = template.size
    if exact:
        # n-scaled centred sums as Python ints: n * sum(T**2) - sum(T)**2.
        t_sum = int(template.sum())
        t_energy = n * int(np.sum(template * template)) - t_sum * t_sum
    else:
        t_centered = template - template.mean()
        t_energy = float(np.sum(t_centered * t_centered))
    if t_energy == 0:
        return CorrelationResult(bbox, 0, 0, degenerate=True, score=0.0)

    sx1 = max(0, x1 - search_margin)
    sy1 = max(0, y1 - search_margin)
    sx2 = min(frame_w, x2 + search_margin)
    sy2 = min(frame_h, y2 + search_margin)
    search = cur[sy1:sy2, sx1:sx2]

    windows = sliding_window_view(search, template.shape)
    win_sum = np.einsum("ijhw->ij", windows)
    win_sq = np.einsum("ijhw,ijhw->ij", windows, windows)
    if exact:
        # The raw int64 sums fit; their n-scaled products need Python ints
        # on wide integer frames. n * sum(W * T) - sum(W) * sum(T) and
        # n * sum(W**2) - sum(W)**2 are the centred terms scaled by n.
        win_sum = win_sum.astype(object)
        raw_cross = np.einsum("ijhw,hw->ij", windows, template).astype(object)
        cross = (n * raw_cross - win_sum * t_sum).astype(np.float64)
        win_energy = (n * win_sq.astype(object) - win_sum * win_sum).astype(np.float64)
    else:
        # sum(W * Tc) equals sum((W - mean(W)) * Tc) because Tc sums to zero.
        cross = np.einsum("ijhw,hw->ij", windows, t_centered)
        win_energy = np.maximum(win_sq - win_sum * win_sum / n, 0.0)
    denom = np.sqrt(win_energy * float(t_energy))
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 0.0, cross / denom, 0.0)

    peak = float(ncc.max())
    cand_rows, cand_cols = np.nonzero(ncc >= peak - _PEAK_TIE_EPS)
    best = None
    for row, col in zip(cand_rows.tolist(), cand_cols.tolist()):
        dy = (sy1 + row) - y1
        dx = (sx1 + col) - x1
        key = (abs(dx) + abs(dy), dy, dx)
        if best is None or key < best[0]:
            best = (key, dx, dy)
    _, dx, dy = best
    return CorrelationResult(bbox.translate(dx, dy), dx, dy, degenerate=False, score=peak)


def read_detections_reference(path):
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
            previous_frame = frame
            box = _read_box(path, line_no, coords, "field 'bbox' invalid")
            detections.append(Detection(frame, box, score, class_id))
    return detections
