"""Confusion-matrix construction and precision/recall/accuracy sweeps.

Counts are pooled over the whole sequence, not averaged per frame.
TP/FP/FN are box-level events from per-frame greedy IoU matching; TN is
inherently frame-level for detection (a correctly classified absence has
no box), so a TN is a frame with neither ground truth nor surviving
detections. N = TP + FP + FN + TN therefore mixes box-level and
frame-level counts; this is deliberate and documented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .geometry import BoundingBox, Detection, require_fraction

DEFAULT_IOU_THRESHOLD = 0.5

#: The canonical nine-step confidence sweep, 0.10 through 0.90.
NINE_THRESHOLDS = tuple(i / 10 for i in range(1, 10))


@dataclass(frozen=True)
class GroundTruthRecord:
    """A labeled box: one object in one frame."""

    frame_index: int
    bbox: BoundingBox
    object_id: int

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")
        if self.object_id < 0:
            raise ValueError(f"object_id must be non-negative, got {self.object_id}")


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FP/FN/TN tallies; n is always their sum."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class MetricValues(NamedTuple):
    precision: float
    recall: float
    accuracy: float
    degenerate: tuple[str, ...]


@dataclass(frozen=True)
class MetricsReport:
    """One sweep row: counts plus the derived metrics at one threshold."""

    threshold: float
    counts: ConfusionCounts
    precision: float
    recall: float
    accuracy: float
    degenerate: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "tp": self.counts.tp,
            "fp": self.counts.fp,
            "fn": self.counts.fn,
            "tn": self.counts.tn,
            "n": self.counts.n,
            "precision": self.precision,
            "recall": self.recall,
            "accuracy": self.accuracy,
            "degenerate": list(self.degenerate),
        }


def metrics(counts: ConfusionCounts) -> MetricValues:
    """Precision, recall, and accuracy from pooled counts.

    Degenerate denominators (no predicted positives, no actual positives,
    or an empty sample) yield 0 for the affected metric and are flagged
    rather than raised, keeping sweep outputs total.
    """
    degenerate = []
    if counts.tp + counts.fp > 0:
        precision = counts.tp / (counts.tp + counts.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if counts.tp + counts.fn > 0:
        recall = counts.tp / (counts.tp + counts.fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    if counts.n > 0:
        accuracy = (counts.tp + counts.tn) / counts.n
    else:
        accuracy = 0.0
        degenerate.append("accuracy")
    return MetricValues(precision, recall, accuracy, tuple(degenerate))


def match_frame(
    detections: Sequence[Detection],
    ground_truth: Sequence[GroundTruthRecord],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> tuple[int, int, int]:
    """Greedy IoU matching within one frame, returning (tp, fp, fn).

    Detections are considered in descending confidence (ties: input order).
    Each claims its best-IoU still-unmatched ground-truth box if that IoU
    reaches iou_threshold (IoU ties: lowest ground-truth index); otherwise
    it is a false positive. Leftover ground-truth boxes are false negatives.
    """
    frames = {d.frame_index for d in detections} | {g.frame_index for g in ground_truth}
    if len(frames) > 1:
        raise ValueError(f"records span multiple frames: {sorted(frames)}")

    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    # Unmatched ground truth as (x1, y1, x2, y2, area) in ascending index
    # order; the strict > below gives an IoU tie to the lowest index.
    unmatched = [
        (b.x1, b.y1, b.x2, b.y2, (b.x2 - b.x1) * (b.y2 - b.y1))
        for b in (record.bbox for record in ground_truth)
    ]
    tp = 0
    for det_index in order:
        if not unmatched:
            break
        box = detections[det_index].bbox
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        area = (x2 - x1) * (y2 - y1)
        best_iou = 0.0
        best_slot = -1
        # geometry.iou(box, truth) inlined in its operation order, so every
        # score is bit-identical; min(a, b) is `b if b < a else a`.
        for slot, (gx1, gy1, gx2, gy2, g_area) in enumerate(unmatched):
            inter_w = (gx2 if gx2 < x2 else x2) - (gx1 if gx1 > x1 else x1)
            if inter_w <= 0.0:
                continue
            inter_h = (gy2 if gy2 < y2 else y2) - (gy1 if gy1 > y1 else y1)
            if inter_h <= 0.0:
                continue
            intersection = inter_w * inter_h
            union = area + g_area - intersection
            if union <= 0.0:
                continue
            overlap = intersection / union
            if overlap > best_iou:
                best_iou = overlap
                best_slot = slot
        if best_slot >= 0 and best_iou >= iou_threshold:
            del unmatched[best_slot]
            tp += 1
    return tp, len(detections) - tp, len(unmatched)


def count_tn(
    frame_count: int,
    detections: Iterable[Detection],
    ground_truth: Iterable[GroundTruthRecord],
) -> int:
    """Frames (of 0..frame_count-1) with neither detections nor ground truth.

    Detections are expected to be threshold-filtered already; a frame whose
    detections were all filtered out counts as empty.
    """
    if frame_count < 0:
        raise ValueError(f"frame_count must be non-negative, got {frame_count}")
    occupied = {d.frame_index for d in detections} | {g.frame_index for g in ground_truth}
    return frame_count - sum(1 for f in occupied if 0 <= f < frame_count)


def group_by_frame(records) -> dict[int, list]:
    """Records keyed by frame_index, input order kept within each frame."""
    grouped: dict[int, list] = {}
    for record in records:
        grouped.setdefault(record.frame_index, []).append(record)
    return grouped


def _infer_frame_count(detections, ground_truth) -> int:
    frames = [d.frame_index for d in detections] + [g.frame_index for g in ground_truth]
    return max(frames) + 1 if frames else 0


def evaluate_at(
    detections: Sequence[Detection],
    ground_truth: Sequence[GroundTruthRecord],
    threshold: float,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    frame_count: Optional[int] = None,
) -> MetricsReport:
    """Pooled confusion counts and metrics at a single confidence threshold.

    frame_count fixes the frame universe for TN counting; when omitted it
    is inferred as the highest frame index present plus one.
    """
    require_fraction("threshold", threshold)
    require_fraction("iou_threshold", iou_threshold)
    if frame_count is None:
        frame_count = _infer_frame_count(detections, ground_truth)
    kept = [d for d in detections if d.confidence >= threshold]
    det_frames = group_by_frame(kept)
    gt_frames = group_by_frame(ground_truth)
    tp = fp = fn = 0
    for frame in sorted(det_frames.keys() | gt_frames.keys()):
        f_tp, f_fp, f_fn = match_frame(
            det_frames.get(frame, ()), gt_frames.get(frame, ()), iou_threshold
        )
        tp += f_tp
        fp += f_fp
        fn += f_fn
    tn = count_tn(frame_count, kept, ground_truth)
    counts = ConfusionCounts(tp, fp, fn, tn)
    values = metrics(counts)
    return MetricsReport(
        threshold, counts, values.precision, values.recall, values.accuracy, values.degenerate
    )


def threshold_sweep(
    detections: Sequence[Detection],
    ground_truth: Sequence[GroundTruthRecord],
    thresholds: Sequence[float] = NINE_THRESHOLDS,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    frame_count: Optional[int] = None,
) -> list[MetricsReport]:
    """Evaluate the sequence once per threshold, strictly increasing in (0, 1)."""
    if len(thresholds) == 0:
        raise ValueError("threshold list must not be empty")
    for t in thresholds:
        if not (0.0 < t < 1.0):
            raise ValueError(f"sweep thresholds must lie strictly inside (0, 1), got {t}")
    for a, b in zip(thresholds, thresholds[1:]):
        if not a < b:
            raise ValueError(f"thresholds must be strictly increasing, got {a} then {b}")
    if frame_count is None:
        frame_count = _infer_frame_count(detections, ground_truth)
    return [
        evaluate_at(detections, ground_truth, t, iou_threshold, frame_count)
        for t in thresholds
    ]
