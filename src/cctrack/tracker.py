"""Centroid + correlation multi-object tracker.

Per-frame flow on a detection frame:

  1. drop detections below the confidence threshold (and foreign classes)
  2. greedily associate surviving centroids with live tracks, nearest
     pair first, gated at max_distance; only detections in each track's
     x-strip of half-width max_distance are scored, which drops no pair
     within the gate
  3. matched tracks adopt the new box, reset their disappearance counter,
     and extend their history
  4. unmatched detections register new tracks with fresh ids
  5. unmatched tracks age by one frame
  6. tracks aged past max_disappearance are deregistered

On frames where the detector is scheduled off (detection_interval > 1),
live tracks are advanced by normalized cross-correlation against the
previous frame's pixels instead.

A tracker instance is single-owner mutable state: updates are strictly
sequential per instance; snapshots returned by live_tracks are immutable
copies, and independent instances may run concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .correlation import correlate_track
from .geometry import (
    BoundingBox, Detection, Point, centroid, euclidean, require_fields, require_fraction
)


@dataclass(frozen=True)
class TrackerConfig:
    """Tuning knobs of the tracker.

    max_disappearance is an inclusive allowance: a track may sit unmatched
    for that many consecutive frames and survive; one more removes it.
    detection_interval is the number of frames between detector
    invocations (1 = detect every frame).
    """

    max_disappearance: int = 50
    max_distance: float = 50.0
    confidence_threshold: float = 0.5
    detection_interval: int = 1
    person_class_id: int = 0
    search_margin: int = 20

    def __post_init__(self):
        require_fields(self)
        if self.max_disappearance < 1:
            raise ValueError(f"max_disappearance must be positive, got {self.max_disappearance}")
        if not self.max_distance > 0:
            raise ValueError(f"max_distance must be positive, got {self.max_distance}")
        require_fraction("confidence_threshold", self.confidence_threshold)
        if self.detection_interval < 1:
            raise ValueError(f"detection_interval must be >= 1, got {self.detection_interval}")
        if self.search_margin < 0:
            raise ValueError(f"search_margin must be non-negative, got {self.search_margin}")


@dataclass(frozen=True)
class Track:
    """Immutable snapshot of one tracked object."""

    id: int
    bbox: BoundingBox
    centroid: Point
    disappeared: int
    history: tuple[tuple[int, Point], ...]


@dataclass(frozen=True)
class FrameUpdate:
    """Event log of one update, making every state transition observable.

    On detection frames each live track lands in exactly one of matched,
    disappeared_incremented, or deregistered; on correlation frames the
    advanced track ids land in correlated instead. All id lists are
    pairwise disjoint. positions holds (track_id, centroid) after the
    update for every id in matched, then registered, then correlated.
    """

    frame_index: int
    matched: tuple[tuple[int, Detection], ...] = ()
    registered: tuple[int, ...] = ()
    disappeared_incremented: tuple[int, ...] = ()
    deregistered: tuple[int, ...] = ()
    correlated: tuple[int, ...] = ()
    positions: tuple[tuple[int, Point], ...] = ()


class AssociationResult(NamedTuple):
    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_incoming: tuple[int, ...]


def associate(
    existing: Sequence[tuple[int, Point]],
    incoming: Sequence[tuple[int, Point]],
    max_distance: float,
) -> AssociationResult:
    """Greedy nearest-pair matching of track centroids to incoming centroids.

    All (track, incoming) pairs within max_distance are sorted by ascending
    distance (ties: lower track id, then lower incoming index) and accepted
    while both sides are unclaimed. Each track and each incoming point is
    matched at most once.
    """
    if not max_distance > 0:
        raise ValueError(f"max_distance must be positive, got {max_distance}")
    # hypot(dx, dy) >= max(|dx|, |dy|), so a pair within the gate has its
    # point in the track's x-strip and |dy| <= max_distance. The strip is
    # widened slightly so that a dx that rounds down onto the gate is kept.
    by_x = sorted(incoming, key=lambda item: item[1].x)
    xs = [point.x for _, point in by_x]
    reach = max_distance * (1 + 1e-9) + 1e-9
    candidates = []
    for track_id, track_point in existing:
        x, y = track_point.x, track_point.y
        for index, point in by_x[bisect_left(xs, x - reach) : bisect_right(xs, x + reach)]:
            if abs(point.y - y) > max_distance:
                continue
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


@dataclass
class _TrackState:
    id: int
    bbox: BoundingBox
    centroid: Point
    disappeared: int = 0
    history: list[tuple[int, Point]] = field(default_factory=list)

    def snapshot(self) -> Track:
        return Track(self.id, self.bbox, self.centroid, self.disappeared, tuple(self.history))

    def move_to(self, frame_index: int, bbox: BoundingBox, center: Point):
        self.bbox = bbox
        self.centroid = center
        self.history.append((frame_index, center))


class CentroidCorrelationTracker:
    """Identity-assigning tracker over a stream of per-frame detections."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self._tracks: dict[int, _TrackState] = {}
        self._next_id = 0
        self._update_count = 0
        self._last_frame_index: Optional[int] = None
        self._prev_frame: Optional[np.ndarray] = None

    def live_tracks(self) -> list[Track]:
        """Snapshots of all live tracks, ids ascending (registration order)."""
        return [self._tracks[tid].snapshot() for tid in sorted(self._tracks)]

    @property
    def next_id(self) -> int:
        return self._next_id

    @property
    def detects_next(self) -> bool:
        """Whether the next update is a detection frame.

        The detector runs on every detection_interval-th call to update,
        starting with the first; calls are counted, not frame indices. A
        caller asks this before running its detector, and passes no
        detections when it is False.
        """
        return self._update_count % self.config.detection_interval == 0

    def update(
        self,
        frame_index: int,
        detections: Sequence[Detection] = (),
        frame: Optional[np.ndarray] = None,
    ) -> FrameUpdate:
        """Advance the tracker by one frame and report every transition.

        frame_index must strictly increase across calls; every detection
        must carry this frame's index. Whether this call is a detection or
        a correlation update is detects_next, read before the call.
        """
        if self._last_frame_index is not None and frame_index <= self._last_frame_index:
            raise ValueError(
                f"frame_index must increase: got {frame_index} after {self._last_frame_index}"
            )
        for det in detections:
            if det.frame_index != frame_index:
                raise ValueError(
                    f"detection from frame {det.frame_index} passed to update of frame {frame_index}"
                )

        detection_frame = self.detects_next
        if not detection_frame and len(detections) > 0:
            raise ValueError(
                "detections supplied on a correlation-scheduled frame; "
                "this update runs between detector invocations"
            )
        self._update_count += 1
        self._last_frame_index = frame_index

        if detection_frame:
            update = self._detection_update(frame_index, detections)
        else:
            update = self._correlation_update(frame_index, frame)

        if frame is not None:
            self._prev_frame = np.array(frame, copy=True)
        return update

    def _detection_update(self, frame_index: int, detections: Sequence[Detection]) -> FrameUpdate:
        cfg = self.config
        kept = [
            d
            for d in detections
            if d.confidence >= cfg.confidence_threshold and d.class_id == cfg.person_class_id
        ]
        existing = [(tid, self._tracks[tid].centroid) for tid in sorted(self._tracks)]
        incoming = [(i, centroid(d.bbox)) for i, d in enumerate(kept)]
        result = associate(existing, incoming, cfg.max_distance)

        matched, positions = [], []
        for track_id, index in result.matches:
            det = kept[index]
            center = incoming[index][1]
            self._tracks[track_id].disappeared = 0
            self._tracks[track_id].move_to(frame_index, det.bbox, center)
            matched.append((track_id, det))
            positions.append((track_id, center))

        registered = []
        for index in result.unmatched_incoming:
            det = kept[index]
            center = incoming[index][1]
            track = _TrackState(self._next_id, det.bbox, center)
            track.history.append((frame_index, center))
            self._tracks[track.id] = track
            self._next_id += 1
            registered.append(track.id)
            positions.append((track.id, center))

        aged, removed = [], []
        for track_id in result.unmatched_tracks:
            track = self._tracks[track_id]
            track.disappeared += 1
            if track.disappeared > cfg.max_disappearance:
                del self._tracks[track_id]
                removed.append(track_id)
            else:
                aged.append(track_id)

        return FrameUpdate(
            frame_index,
            matched=tuple(matched),
            registered=tuple(registered),
            disappeared_incremented=tuple(sorted(aged)),
            deregistered=tuple(sorted(removed)),
            positions=tuple(positions),
        )

    def _correlation_update(self, frame_index: int, frame: Optional[np.ndarray]) -> FrameUpdate:
        if frame is None or self._prev_frame is None or not self._tracks:
            # Nothing to advance from: tracks coast unchanged.
            return FrameUpdate(frame_index)
        advanced = []
        frame_h, frame_w = self._prev_frame.shape
        for track_id in sorted(self._tracks):
            track = self._tracks[track_id]
            visible = self._clip_to_frame(track.bbox, frame_w, frame_h)
            if visible is None:
                continue
            result = correlate_track(
                self._prev_frame, frame, visible, self.config.search_margin
            )
            if not result.degenerate:
                moved = track.bbox.translate(result.dx, result.dy)
                track.move_to(frame_index, moved, centroid(moved))
            else:
                track.history.append((frame_index, track.centroid))
            advanced.append(track_id)
        return FrameUpdate(
            frame_index,
            correlated=tuple(advanced),
            positions=tuple((tid, self._tracks[tid].centroid) for tid in advanced),
        )

    @staticmethod
    def _clip_to_frame(bbox: BoundingBox, frame_w: int, frame_h: int) -> Optional[BoundingBox]:
        """Visible part of the box, or None if too little of it is on-frame to correlate."""
        x1 = max(bbox.x1, 0.0)
        y1 = max(bbox.y1, 0.0)
        x2 = min(bbox.x2, float(frame_w))
        y2 = min(bbox.y2, float(frame_h))
        if x2 - x1 < 2.0 or y2 - y1 < 2.0:
            return None
        return BoundingBox(x1, y1, x2, y2)
