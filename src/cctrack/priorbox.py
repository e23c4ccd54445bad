"""Multi-scale detection-layer grids and prior-box location arithmetic.

Encodes the six-layer feature-map layout of the SSD-style detector head
(square input assumed) and counts or places the prior-box grid centers.
Scales and aspect ratios of the boxes themselves are deliberately not
modeled; this module stops at grid geometry and counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .geometry import Point


@dataclass(frozen=True)
class FeatureMapSpec:
    """One detection layer: a square-ish cell grid with boxes per cell."""

    name: str
    grid_w: int
    grid_h: int
    boxes_per_cell: int

    def __post_init__(self):
        for field in ("grid_w", "grid_h", "boxes_per_cell"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")

    @property
    def num_priors(self) -> int:
        return self.grid_w * self.grid_h * self.boxes_per_cell


@dataclass(frozen=True)
class PriorBoxLayout:
    """Ordered detection layers plus the (square) input image size."""

    specs: tuple[FeatureMapSpec, ...]
    image_size: int = 300

    def __post_init__(self):
        if not self.specs:
            raise ValueError("layout needs at least one feature map spec")
        if self.image_size < 1:
            raise ValueError(f"image_size must be positive, got {self.image_size}")


def default_layer_specs() -> tuple[FeatureMapSpec, ...]:
    """The six detection layers, in network order.

    Conv11_2 collapses to a single cell: a 1x1 grid of 4 boxes is the only
    grid consistent with the 8732-prior total.
    """
    return (
        FeatureMapSpec("Conv4_3", 38, 38, 4),
        FeatureMapSpec("Conv7", 19, 19, 6),
        FeatureMapSpec("Conv8_2", 10, 10, 6),
        FeatureMapSpec("Conv9_2", 5, 5, 6),
        FeatureMapSpec("Conv10_2", 3, 3, 4),
        FeatureMapSpec("Conv11_2", 1, 1, 4),
    )


def prior_box_count(specs: Iterable[FeatureMapSpec]) -> int:
    """Total prior-box locations over the given layers."""
    return sum(spec.num_priors for spec in specs)


def generate_prior_centers(spec: FeatureMapSpec) -> list[Point]:
    """Cell-midpoint centers of one layer, normalized to (0, 1)^2.

    Row-major: x varies fastest. Each center stands for boxes_per_cell
    priors; callers expand the multiplicity when enumerating boxes.
    """
    centers = []
    for row in range(spec.grid_h):
        cy = (row + 0.5) / spec.grid_h
        for col in range(spec.grid_w):
            centers.append(Point((col + 0.5) / spec.grid_w, cy))
    return centers


def per_layer_counts(specs: Sequence[FeatureMapSpec]) -> list[tuple[str, int]]:
    """(layer name, prior count) pairs in layer order."""
    return [(spec.name, spec.num_priors) for spec in specs]
