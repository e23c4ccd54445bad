import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctrack.correlation import correlate_track
from cctrack.evaluation import threshold_sweep
from cctrack.geometry import BoundingBox
from cctrack.scenario import (
    SCENARIO_PRESETS,
    _neighbor_counts,
    _reflect,
    ScenarioConfig,
    config_from_dict,
    crowd_category,
    generate,
    preset_config,
    render_frames,
)

from oracles import neighbor_counts_reference


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_people=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(frame_count=0)
        with pytest.raises(ValueError):
            ScenarioConfig(miss_rate_base=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(image_size=(30, 30), person_box_size=40)
        with pytest.raises(ValueError):
            ScenarioConfig(speed_range=(5.0, 2.0))

    def test_integer_fields_must_be_integers(self):
        for overrides in (
            dict(num_people=2.5),
            dict(frame_count="5"),
            dict(person_box_size=True),
            dict(image_size=(100.5, 80)),
            dict(rng_seed=1.5),
        ):
            with pytest.raises(TypeError, match="must be an integer"):
                ScenarioConfig(**overrides)
        config = ScenarioConfig(num_people=np.int64(2), image_size=(np.int32(100), 80))
        assert config.crowd_category == "small"

    def test_float_fields_must_be_finite_numbers(self):
        for overrides in (dict(box_jitter=True), dict(speed_range=(1.0, "4")), dict(speed_range=2.0)):
            with pytest.raises(TypeError, match=next(iter(overrides))):
                ScenarioConfig(**overrides)
        with pytest.raises(ValueError, match="false_positive_rate must be finite"):
            ScenarioConfig(false_positive_rate=math.inf)
        config = ScenarioConfig(box_jitter=np.float32(0.5), speed_range=(1, np.float64(2.0)))
        assert config.box_jitter == 0.5

    def test_crowd_categories(self):
        assert crowd_category(0) == "small"
        assert crowd_category(4) == "small"
        assert crowd_category(5) == "medium"
        assert crowd_category(9) == "medium"
        assert crowd_category(10) == "large"
        assert crowd_category(30) == "large"

    def test_presets_put_crowds_in_their_bands(self):
        assert preset_config("small").crowd_category == "small"
        assert preset_config("medium").crowd_category == "medium"
        assert preset_config("large").crowd_category == "large"
        assert set(SCENARIO_PRESETS) == {"noiseless", "small", "medium", "large"}

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"nope": 1})
        cfg = config_from_dict({"preset": "small", "rng_seed": 9, "frame_count": 10})
        assert cfg.rng_seed == 9 and cfg.frame_count == 10 and cfg.num_people == 3

    def test_preset_key_when_present_must_name_a_preset(self):
        assert config_from_dict({"frame_count": 10}) == ScenarioConfig(frame_count=10)
        for preset in (["small"], None):
            with pytest.raises(ValueError, match=r"unknown preset .*; choose from \['large', "):
                config_from_dict({"preset": preset})

    def test_list_pairs_are_stored_as_tuples_by_every_entry_point(self):
        pairs = dict(image_size=[320, 240], speed_range=[0.5, 2.0])
        configs = [
            ScenarioConfig(**{**SCENARIO_PRESETS["small"], **pairs}),
            preset_config("small", **pairs),
            config_from_dict({"preset": "small", **pairs}),
            replace(preset_config("small"), **pairs),
        ]
        for config in configs:
            assert config.image_size == (320, 240) and type(config.image_size) is tuple
            assert config.speed_range == (0.5, 2.0) and type(config.speed_range) is tuple
            assert config == configs[0] and hash(config) == hash(configs[0])


class TestGenerate:
    def test_empty_crowd_has_clutter_only(self):
        cfg = ScenarioConfig(num_people=0, frame_count=50, false_positive_rate=0.5, rng_seed=3)
        scn = generate(cfg)
        assert scn.ground_truth == []
        assert len(scn.detections) > 0

    def test_noiseless_detections_equal_ground_truth(self):
        cfg = preset_config("noiseless", frame_count=60, rng_seed=11)
        scn = generate(cfg)
        assert len(scn.detections) == len(scn.ground_truth)
        for d, g in zip(scn.detections, scn.ground_truth):
            assert d.frame_index == g.frame_index
            assert d.bbox == g.bbox
            assert d.confidence == 1.0
        reports = threshold_sweep(scn.detections, scn.ground_truth,
                                  frame_count=cfg.frame_count)
        for report in reports:
            assert (report.precision, report.recall, report.accuracy) == (1.0, 1.0, 1.0)

    def test_same_seed_same_scenario(self):
        cfg = preset_config("medium", frame_count=40, rng_seed=21)
        a, b = generate(cfg), generate(cfg)
        assert a.ground_truth == b.ground_truth
        assert a.detections == b.detections

    def test_different_seed_different_scenario(self):
        cfg = preset_config("medium", frame_count=40, rng_seed=21)
        other = generate(replace(cfg, rng_seed=22))
        assert other.detections != generate(cfg).detections

    def test_ground_truth_boxes_stay_inside_the_image(self):
        cfg = preset_config("large", frame_count=150, image_size=(200, 150),
                            person_box_size=24, speed_range=(2.0, 12.0), rng_seed=5)
        scn = generate(cfg)
        w, h = cfg.image_size
        for record in scn.ground_truth:
            b = record.bbox
            assert 0 <= b.x1 <= b.x2 <= w
            assert 0 <= b.y1 <= b.y2 <= h

    def test_huge_speed_reflects_in_bounded_time_inside_the_image(self):
        cfg = config_from_dict({"preset": "small", "speed_range": [1, 1e308], "frame_count": 3})
        start = time.perf_counter()
        scn = generate(cfg)
        assert time.perf_counter() - start < 1.0
        w, h = cfg.image_size
        for record in scn.ground_truth:
            b = record.bbox
            assert 0 <= b.x1 <= b.x2 <= w
            assert 0 <= b.y1 <= b.y2 <= h

    def test_folding_a_far_position_lands_where_bouncing_does(self):
        def bounce(value, lo, hi):
            while value < lo or value > hi:
                value = 2.0 * lo - value if value < lo else 2.0 * hi - value
            return value

        for value in np.random.default_rng(0).uniform(-6000.0, 6000.0, 500):
            assert _reflect(value, 20.0, 620.0) == pytest.approx(bounce(value, 20.0, 620.0), abs=1e-9)

    def test_every_person_present_every_frame(self):
        cfg = preset_config("small", frame_count=25, rng_seed=8)
        scn = generate(cfg)
        by_frame = {}
        for record in scn.ground_truth:
            by_frame.setdefault(record.frame_index, set()).add(record.object_id)
        assert set(by_frame) == set(range(25))
        for ids in by_frame.values():
            assert ids == set(range(cfg.num_people))

    def test_miss_rate_matches_binomial_within_three_sigma(self):
        # crowding disabled so every person-frame is an independent Bernoulli
        miss = 0.3
        frames = 2000
        cfg = ScenarioConfig(
            num_people=3, frame_count=frames, miss_rate_base=miss,
            false_positive_rate=0.0, crowd_miss_gain=0.0, crowd_confidence_drop=0.0,
            rng_seed=17,
        )
        scn = generate(cfg)
        sigma = math.sqrt(frames * miss * (1 - miss))
        per_person = len(scn.detections) / cfg.num_people
        assert abs(per_person - (1 - miss) * frames) <= 3 * sigma

    def test_false_positive_rate_matches_poisson_within_three_sigma(self):
        rate = 0.5
        frames = 2000
        cfg = ScenarioConfig(num_people=0, frame_count=frames,
                             false_positive_rate=rate, rng_seed=23)
        scn = generate(cfg)
        expected = rate * frames
        sigma = math.sqrt(expected)
        assert abs(len(scn.detections) - expected) <= 3 * sigma

    def test_crowding_raises_the_effective_miss_rate(self):
        # same people count, tiny vs huge interaction radius
        base = dict(num_people=10, frame_count=400, image_size=(300, 240),
                    person_box_size=24, miss_rate_base=0.05,
                    false_positive_rate=0.0, rng_seed=31)
        sparse = generate(ScenarioConfig(**base, crowd_radius=1e-6, crowd_miss_gain=0.05))
        crowded = generate(ScenarioConfig(**base, crowd_radius=500.0, crowd_miss_gain=0.05))
        assert len(crowded.detections) < len(sparse.detections)


@st.composite
def crowds(draw):
    """Positions and a radius that one pair's distance equals, or misses by one ulp.

    Some positions repeat, so coincident people are drawn too.
    """
    coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=12))
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    (x1, y1), (x2, y2) = draw(st.permutations(points))[:2]
    radius = math.hypot(x1 - x2, y1 - y2)
    radius = draw(st.sampled_from(
        [radius, math.nextafter(radius, 0.0), math.nextafter(radius, math.inf)]
    ))
    xs, ys = (list(axis) for axis in zip(*points))
    return xs, ys, radius


class TestNeighborCounts:
    @settings(max_examples=500, deadline=None)
    @given(crowds())
    def test_equals_the_ordered_pair_reference(self, crowd):
        xs, ys, radius = crowd
        assert _neighbor_counts(xs, ys, radius) == neighbor_counts_reference(xs, ys, radius)

    def test_pairs_on_the_radius_and_one_ulp_either_side(self):
        # 3-4-5 offsets: each pair's hypot is exactly 5.0.
        xs, ys = [0.0, 3.0, -3.0, 0.0], [0.0, 4.0, -4.0, 0.0]
        assert _neighbor_counts(xs, ys, 5.0) == [1, 0, 0, 1]
        assert _neighbor_counts(xs, ys, math.nextafter(5.0, 0.0)) == [1, 0, 0, 1]
        assert _neighbor_counts(xs, ys, math.nextafter(5.0, math.inf)) == [3, 2, 2, 3]


class TestRenderFrames:
    def test_empty_crowd_renders_flat_background(self):
        cfg = ScenarioConfig(num_people=0, frame_count=3, image_size=(64, 48),
                             false_positive_rate=0.0, rng_seed=2)
        frames = list(render_frames(generate(cfg)))
        assert len(frames) == 3
        for frame in frames:
            assert frame.shape == (48, 64)
            assert frame.dtype == np.uint8
            assert np.all(frame == frame[0, 0])

    def test_static_person_produces_identical_frames_and_zero_offset(self):
        cfg = ScenarioConfig(num_people=1, frame_count=4, image_size=(100, 80),
                             person_box_size=20, speed_range=(0.0, 0.0),
                             miss_rate_base=0.0, false_positive_rate=0.0,
                             box_jitter=0.0, rng_seed=13)
        scn = generate(cfg)
        frames = list(render_frames(scn))
        assert all(np.array_equal(frames[0], f) for f in frames[1:])
        bbox = scn.ground_truth[0].bbox
        result = correlate_track(frames[0], frames[1], bbox, search_margin=8)
        assert (result.dx, result.dy) == (0, 0)

    def test_ncc_recovers_the_stamped_displacements(self):
        cfg = ScenarioConfig(num_people=1, frame_count=30, image_size=(160, 120),
                             person_box_size=24, speed_range=(2.0, 4.0),
                             miss_rate_base=0.0, false_positive_rate=0.0,
                             box_jitter=0.0, rng_seed=29)
        scn = generate(cfg)
        frames = list(render_frames(scn))
        records = sorted(scn.ground_truth, key=lambda r: r.frame_index)
        size = cfg.person_box_size
        for prev_rec, cur_rec in zip(records, records[1:]):
            prev_frame = frames[prev_rec.frame_index]
            cur_frame = frames[cur_rec.frame_index]
            # the texture is stamped at rounded corners, so the truth offset
            # between frames is the difference of the rounded positions, and
            # the pixel-aligned stamp box is what a detector would report
            px = round(prev_rec.bbox.x1)
            py = round(prev_rec.bbox.y1)
            expected_dx = round(cur_rec.bbox.x1) - px
            expected_dy = round(cur_rec.bbox.y1) - py
            stamp_box = BoundingBox(px, py, px + size, py + size)
            result = correlate_track(prev_frame, cur_frame, stamp_box, search_margin=8)
            assert (result.dx, result.dy) == (expected_dx, expected_dy)

    def test_rendering_is_deterministic(self):
        cfg = ScenarioConfig(num_people=2, frame_count=5, image_size=(80, 60),
                             person_box_size=16, rng_seed=3)
        scn = generate(cfg)
        a = list(render_frames(scn))
        b = list(render_frames(generate(cfg)))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
