"""Seeded synthetic crowd scenarios: trajectories, noisy detections, frames.

Stand-in for real surveillance footage at desk scale. People follow
bounded random walks; a detector is emulated by dropping, jittering, and
scoring their boxes, with extra clutter false positives. Local crowding
raises the effective miss rate and drags confidences down, so large
crowds degrade recall at high confidence thresholds.

Generation is a pure function of the config: the PCG64 generator
(numpy.random.default_rng) seeded with rng_seed is part of the format
contract, so identical configs reproduce byte-identical scenario files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .evaluation import GroundTruthRecord, group_by_frame
from .geometry import BoundingBox, Detection, config_from_fields, require_fields, require_fraction

_TEXTURE_STREAM = 7919  # seed-sequence tag separating texture rng from motion rng

# Clutter false positives: confidence ~ N(mean, std) in [0, 1], side ~ person_box_size * U(range)
CLUTTER_CONFIDENCE_MEAN = 0.30
CLUTTER_CONFIDENCE_STD = 0.10
CLUTTER_SIZE_RANGE = (0.6, 1.4)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of one synthetic video. num_people 0 is allowed (empty crowd)."""

    num_people: int = 3
    frame_count: int = 300
    image_size: tuple[int, int] = (640, 480)
    speed_range: tuple[float, float] = (1.0, 4.0)
    person_box_size: int = 40
    miss_rate_base: float = 0.05
    false_positive_rate: float = 0.1
    box_jitter: float = 1.0
    confidence_mean: float = 0.85
    confidence_std: float = 0.04
    crowd_radius: float = 120.0
    crowd_miss_gain: float = 0.015
    crowd_confidence_drop: float = 0.02
    rng_seed: int = 0

    def __post_init__(self):
        require_fields(self)
        if self.num_people < 0:
            raise ValueError(f"num_people must be >= 0, got {self.num_people}")
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be positive, got {self.frame_count}")
        w, h = self.image_size
        if self.person_box_size < 1:
            raise ValueError(f"person_box_size must be positive, got {self.person_box_size}")
        if w < self.person_box_size or h < self.person_box_size:
            raise ValueError(f"image {w}x{h} too small for {self.person_box_size}px boxes")
        lo, hi = self.speed_range
        if lo < 0 or hi < lo:
            raise ValueError(f"speed_range must satisfy 0 <= lo <= hi, got {self.speed_range}")
        require_fraction("miss_rate_base", self.miss_rate_base)
        for name in (
            "false_positive_rate",
            "box_jitter",
            "confidence_std",
            "crowd_miss_gain",
            "crowd_confidence_drop",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.crowd_radius <= 0:
            raise ValueError(f"crowd_radius must be positive, got {self.crowd_radius}")

    @property
    def crowd_category(self) -> str:
        return crowd_category(self.num_people)


def crowd_category(num_people: int) -> str:
    """Crowd-size label: under 5 is small, under 10 medium, else large."""
    if num_people < 5:
        return "small"
    if num_people < 10:
        return "medium"
    return "large"


#: Named parameter sets for the three crowd regimes plus a perfect-detector run.
SCENARIO_PRESETS: dict[str, dict] = {
    "noiseless": dict(
        num_people=3,
        miss_rate_base=0.0,
        false_positive_rate=0.0,
        box_jitter=0.0,
        confidence_mean=1.0,
        confidence_std=0.0,
        crowd_miss_gain=0.0,
        crowd_confidence_drop=0.0,
    ),
    "small": dict(
        num_people=3,
        miss_rate_base=0.02,
        false_positive_rate=0.05,
        confidence_mean=0.92,
        confidence_std=0.035,
        crowd_miss_gain=0.01,
        crowd_confidence_drop=0.01,
    ),
    "medium": dict(
        num_people=8,
        miss_rate_base=0.05,
        false_positive_rate=0.10,
        confidence_mean=0.85,
        confidence_std=0.04,
        crowd_miss_gain=0.015,
        crowd_confidence_drop=0.02,
    ),
    "large": dict(
        num_people=14,
        miss_rate_base=0.08,
        false_positive_rate=0.20,
        confidence_mean=0.70,
        confidence_std=0.04,
        crowd_miss_gain=0.02,
        crowd_confidence_drop=0.03,
    ),
}


def preset_config(name: str, **overrides) -> ScenarioConfig:
    """A ScenarioConfig from a named preset, with field overrides applied."""
    if not isinstance(name, str) or name not in SCENARIO_PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(SCENARIO_PRESETS)}")
    return config_from_fields(ScenarioConfig, {**SCENARIO_PRESETS[name], **overrides})


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a plain dict, starting from an optional "preset" key."""
    data = dict(data)
    if "preset" in data:
        return preset_config(data.pop("preset"), **data)
    return config_from_fields(ScenarioConfig, data)


@dataclass
class Scenario:
    """Generated ground truth plus emulated detector output."""

    config: ScenarioConfig
    ground_truth: list[GroundTruthRecord] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)


def _reflect(value: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return lo
    span = hi - lo
    if value < lo - span or value > hi + span:
        # More than one span out: fold by the reflection period first, so
        # the loop below bounces at most twice whatever the speed.
        value = lo + (value - lo) % (2.0 * span)
    while value < lo or value > hi:
        if value < lo:
            value = 2.0 * lo - value
        if value > hi:
            value = 2.0 * hi - value
    return value


def _neighbor_counts(xs: list[float], ys: list[float], radius: float) -> list[int]:
    """For each person, how many others stand closer than radius.

    Each pair is tested once for both ends: hypot(-dx, -dy) == hypot(dx, dy) exactly.
    """
    counts = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        for j in range(i + 1, len(xs)):
            if math.hypot(xi - xs[j], yi - ys[j]) < radius:
                counts[i] += 1
                counts[j] += 1
    return counts


def generate(config: ScenarioConfig) -> Scenario:
    """Simulate the crowd and the detector over config.frame_count frames.

    Per frame and per person, in a fixed draw order: one uniform decides a
    miss, then (if detected) four normals jitter the box corners and one
    normal scores it, clipped to [0, 1]. Clutter count is Poisson per
    frame. Ground-truth boxes never leave the image.
    """
    rng = np.random.default_rng(config.rng_seed)
    w, h = config.image_size
    half = config.person_box_size / 2.0
    x_lo, x_hi = half, w - half
    y_lo, y_hi = half, h - half

    xs = [rng.uniform(x_lo, x_hi) for _ in range(config.num_people)]
    ys = [rng.uniform(y_lo, y_hi) for _ in range(config.num_people)]

    ground_truth: list[GroundTruthRecord] = []
    detections: list[Detection] = []

    for frame in range(config.frame_count):
        neighbor_counts = _neighbor_counts(xs, ys, config.crowd_radius)
        for pid in range(config.num_people):
            box = BoundingBox(xs[pid] - half, ys[pid] - half, xs[pid] + half, ys[pid] + half)
            ground_truth.append(GroundTruthRecord(frame, box, pid))

            miss = min(1.0, config.miss_rate_base + config.crowd_miss_gain * neighbor_counts[pid])
            if rng.random() < miss:
                continue
            j1, j2, j3, j4 = rng.normal(0.0, config.box_jitter, size=4)
            x1 = box.x1 + j1
            y1 = box.y1 + j2
            x2 = max(box.x2 + j3, x1)
            y2 = max(box.y2 + j4, y1)
            mean = config.confidence_mean - config.crowd_confidence_drop * neighbor_counts[pid]
            conf = min(max(rng.normal(mean, config.confidence_std), 0.0), 1.0)
            detections.append(Detection(frame, BoundingBox(x1, y1, x2, y2), conf, class_id=0))

        for _ in range(rng.poisson(config.false_positive_rate)):
            cx = rng.uniform(0, w)
            cy = rng.uniform(0, h)
            size = config.person_box_size * rng.uniform(*CLUTTER_SIZE_RANGE)
            conf = rng.normal(CLUTTER_CONFIDENCE_MEAN, CLUTTER_CONFIDENCE_STD)
            conf = min(max(conf, 0.0), 1.0)
            clutter = BoundingBox(cx - size / 2, cy - size / 2, cx + size / 2, cy + size / 2)
            detections.append(Detection(frame, clutter, conf, class_id=0))

        for pid in range(config.num_people):
            heading = rng.uniform(0.0, 2.0 * math.pi)
            speed = rng.uniform(*config.speed_range)
            xs[pid] = _reflect(xs[pid] + speed * math.cos(heading), x_lo, x_hi)
            ys[pid] = _reflect(ys[pid] + speed * math.sin(heading), y_lo, y_hi)

    return Scenario(config=config, ground_truth=ground_truth, detections=detections)


def person_textures(config: ScenarioConfig) -> list[np.ndarray]:
    """Per-person random texture tiles, fixed across frames (so NCC can lock on)."""
    size = config.person_box_size
    tiles = []
    for pid in range(config.num_people):
        tile_rng = np.random.default_rng([config.rng_seed, _TEXTURE_STREAM, pid])
        tiles.append(tile_rng.integers(60, 221, size=(size, size), dtype=np.uint8))
    return tiles


def render_frames(scenario: Scenario) -> Iterator[np.ndarray]:
    """Rasterize the ground truth: textured squares on a flat background.

    Each person's texture tile is stamped at the rounded corner of its
    box, so between frames the pattern translates by integer offsets.
    Yields one uint8 (height, width) array per frame, each built when the
    iterator reaches it, so the frames need not fit in memory together.
    """
    config = scenario.config
    w, h = config.image_size
    tiles = person_textures(config)

    by_frame = group_by_frame(scenario.ground_truth)
    for frame in range(config.frame_count):
        image = np.full((h, w), 30, dtype=np.uint8)
        for record in by_frame.get(frame, ()):
            tile = tiles[record.object_id]
            iy = int(round(record.bbox.y1))
            ix = int(round(record.bbox.x1))
            y_stop = min(iy + tile.shape[0], h)
            x_stop = min(ix + tile.shape[1], w)
            y_start = max(iy, 0)
            x_start = max(ix, 0)
            image[y_start:y_stop, x_start:x_stop] = tile[
                y_start - iy : y_stop - iy, x_start - ix : x_stop - ix
            ]
        yield image
