import json
import math
import sys

import pytest

from cctrack.geometry import (
    BoundingBox,
    Detection,
    Point,
    centroid,
    euclidean,
    iou,
    require_number,
)
from cctrack.io import FormatError, read_detections
from cctrack.scenario import ScenarioConfig
from cctrack.tracker import TrackerConfig

from oracles import iou_reference


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point(0.0, float("inf"))

    def test_box_corner_order_enforced(self):
        with pytest.raises(ValueError):
            BoundingBox(5, 0, 4, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 5, 10, 4)

    def test_zero_area_box_is_legal(self):
        b = BoundingBox(2, 4, 2, 4)
        assert b.area == 0

    def test_detection_validation(self):
        b = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            Detection(-1, b, 0.5)
        with pytest.raises(ValueError):
            Detection(0, b, 1.5)
        with pytest.raises(ValueError):
            Detection(0, b, 0.5, class_id=-2)


def _detection_line(tmp_path, key, value):
    record = {"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0, key: value}
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record) + "\n")
    read_detections(path)


# Each input surface with one float and one integer field, as (name, build).
_SURFACES = {
    "tracker config": (
        ("max_distance", lambda tmp_path, v: TrackerConfig(max_distance=v)),
        ("max_disappearance", lambda tmp_path, v: TrackerConfig(max_disappearance=v)),
    ),
    "scenario config": (
        ("box_jitter", lambda tmp_path, v: ScenarioConfig(box_jitter=v)),
        ("num_people", lambda tmp_path, v: ScenarioConfig(num_people=v)),
    ),
    "detection line": (
        ("field 'score'", lambda tmp_path, v: _detection_line(tmp_path, "score", v)),
        ("field 'frame'", lambda tmp_path, v: _detection_line(tmp_path, "frame", v)),
    ),
}


class TestOneNumberRule:
    """Configs and detection files word the same bad number the same way."""

    @pytest.mark.parametrize("surface", sorted(_SURFACES))
    @pytest.mark.parametrize(
        "integral, value, complaint",
        [
            (False, True, "must be a number, got True"),
            (False, "1", "must be a number, got '1'"),
            (False, None, "must be a number, got None"),
            (False, math.nan, "must be finite, got nan"),
            (False, math.inf, "must be finite, got inf"),
            (False, 10**400, "is out of the float range"),
            (True, 2.5, "must be an integer, got 2.5"),
            (True, 10**400, "is out of the float range"),
        ],
        ids=[
            "bool", "string", "null", "nan", "inf", "past-float-range", "fraction-for-int",
            "int-past-float-range",
        ],
    )
    def test_same_message_on_every_surface(self, tmp_path, surface, integral, value, complaint):
        name, build = _SURFACES[surface][integral]
        with pytest.raises((TypeError, ValueError)) as info:
            build(tmp_path, value)
        message = str(info.value)
        if surface == "detection line":
            assert info.type is FormatError
            assert message == f"{tmp_path / 'd.jsonl'}:1: {name} {complaint}"
        else:
            assert message == f"{name} {complaint}"

    def test_integers_pass_exactly_when_float_converts_them(self):
        largest = 2**1024 - 2**970 - 1
        for value in (largest, -largest):
            assert float(require_number("n", value, integral=True)) == math.copysign(
                sys.float_info.max, value
            )
        for value in (largest + 1, -largest - 1):
            with pytest.raises(OverflowError):
                float(value)
            with pytest.raises(ValueError, match="^n is out of the float range$"):
                require_number("n", value, integral=True)


class TestCentroid:
    def test_symmetric_square(self):
        assert centroid(BoundingBox(0, 0, 10, 10)) == Point(5, 5)

    def test_degenerate_box_maps_to_its_corner(self):
        assert centroid(BoundingBox(2, 4, 2, 4)) == Point(2, 4)

    def test_midpoint_arithmetic(self):
        assert centroid(BoundingBox(3, 1, 9, 5)) == Point(6, 3)

    def test_translation_equivariance(self, rng):
        for _ in range(200):
            x1, y1 = rng.uniform(-50, 50, 2)
            w, h = rng.uniform(0, 30, 2)
            tx, ty = rng.uniform(-100, 100, 2)
            b = BoundingBox(x1, y1, x1 + w, y1 + h)
            c = centroid(b)
            shifted = centroid(b.translate(tx, ty))
            assert math.isclose(shifted.x, c.x + tx, abs_tol=1e-9)
            assert math.isclose(shifted.y, c.y + ty, abs_tol=1e-9)


class TestEuclidean:
    def test_three_four_five(self):
        assert euclidean(Point(0, 0), Point(3, 4)) == 5.0

    def test_identity(self):
        assert euclidean(Point(7, 2), Point(7, 2)) == 0.0

    def test_hand_arithmetic(self):
        assert euclidean(Point(1, 1), Point(4, 5)) == 5.0

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(300):
            p, q, r = (Point(*rng.uniform(-100, 100, 2)) for _ in range(3))
            assert euclidean(p, q) == euclidean(q, p)
            assert euclidean(p, r) <= euclidean(p, q) + euclidean(q, r) + 1e-9
            assert euclidean(p, q) >= 0


class TestIoU:
    def test_identity(self):
        b = BoundingBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 30, 30)) == 0.0

    def test_one_third_overlap(self):
        # intersection 50, union 150
        value = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10))
        assert math.isclose(value, 1 / 3, rel_tol=1e-12)

    def test_degenerate_scores_zero_against_anything(self):
        point_box = BoundingBox(5, 5, 5, 5)
        assert iou(point_box, point_box) == 0.0
        assert iou(point_box, BoundingBox(0, 0, 10, 10)) == 0.0

    def test_symmetric_bounded_translation_invariant(self, rng):
        for _ in range(200):
            a = _random_box(rng)
            b = _random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            tx, ty = rng.uniform(-40, 40, 2)
            assert math.isclose(iou(a.translate(tx, ty), b.translate(tx, ty)), v, abs_tol=1e-9)

    def test_agrees_with_interval_oracle(self, rng):
        for _ in range(200):
            a = _random_box(rng)
            b = _random_box(rng)
            assert math.isclose(iou(a, b), iou_reference(a.as_tuple(), b.as_tuple()), abs_tol=1e-12)


def _random_box(rng):
    x1, y1 = rng.uniform(-20, 20, 2)
    w, h = rng.uniform(0.5, 25, 2)
    return BoundingBox(x1, y1, x1 + w, y1 + h)
