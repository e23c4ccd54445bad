"""Core geometric types, pure functions and input checks shared across the toolkit.

All types are immutable value objects and all operations are pure, so they
are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


# Integers float() converts lie strictly between these: 2**1024 - 2**970
# is the least that rounds up to 2**1024, past the largest float.
_FLOAT_INT_LOW, _FLOAT_INT_HIGH = -(2**1024 - 2**970), 2**1024 - 2**970


def require_number(name: str, value, integral: bool = False):
    """Return value if it is an integer (integral) or a finite real number.

    A bool or a value of the wrong kind raises TypeError; numpy scalars pass.
    A number past the float range, integer or not, or a real that is not
    finite, raises ValueError. Builtin int and float are tested first: the
    numbers ABCs cost more per record.
    """
    kind = type(value)
    if integral:
        if kind is int or (kind is not bool and isinstance(value, numbers.Integral)):
            if _FLOAT_INT_LOW < value < _FLOAT_INT_HIGH:
                return value
            raise ValueError(f"{name} is out of the float range")
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not (kind is float or kind is int or (kind is not bool and isinstance(value, numbers.Real))):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return value
    except OverflowError:
        raise ValueError(f"{name} is out of the float range") from None
    raise ValueError(f"{name} must be finite, got {value!r}")


def require_fields(config) -> None:
    """Check each field of a config dataclass by its annotation: int, float, or a pair."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type.startswith("tuple["):
            if not isinstance(value, (tuple, list)) or len(value) != 2:
                raise TypeError(f"{f.name} must be a pair, got {value!r}")
            for entry in value:
                require_number(f"{f.name} entry", entry, f.type == "tuple[int, int]")
        else:
            require_number(f.name, value, f.type == "int")


def config_from_fields(cls, data: dict):
    """cls(**data) for a config dataclass, naming any key that is not a field."""
    unknown = data.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cls(**data)


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
