"""Core geometric types and pure functions shared across the toolkit.

All types are immutable value objects and all operations are pure, so they
are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def require_number(name: str, value, integral: bool = False) -> None:
    """Raise TypeError unless value is a real number (an integer if integral).

    bool is rejected although Python counts it as an integer; numpy scalars
    pass, since they register with the numbers ABCs.
    """
    kind, description = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {description}, got {value!r}")


@dataclass(frozen=True)
class Point:
    """A 2D point in pixel coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel rectangle with (x1, y1) the top-left corner.

    Coordinates are continuous reals; zero-area boxes (x1 == x2 or
    y1 == y2) are legal so point annotations survive ingestion.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box coordinate {name} must be finite")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"box corners out of order: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def translate(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class Detection:
    """A scored, per-frame detector output box."""

    frame_index: int
    bbox: BoundingBox
    confidence: float
    class_id: int = 0

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")


def centroid(box: BoundingBox) -> Point:
    """Center of a bounding box: ((x1+x2)/2, (y1+y2)/2)."""
    return Point((box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0)


def euclidean(p: Point, q: Point) -> float:
    """Euclidean distance between two points, in pixels."""
    return math.hypot(p.x - q.x, p.y - q.y)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Degenerate (zero-area) boxes overlap nothing by definition, so they
    score 0 against any box, including themselves.
    """
    inter_w = min(a.x2, b.x2) - max(a.x1, b.x1)
    inter_h = min(a.y2, b.y2) - max(a.y1, b.y1)
    if inter_w <= 0.0 or inter_h <= 0.0:
        return 0.0
    intersection = inter_w * inter_h
    union = a.area + b.area - intersection
    if union <= 0.0:
        return 0.0
    return intersection / union
