import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctrack.evaluation import group_by_frame
from cctrack.geometry import BoundingBox, Point, centroid
from cctrack.scenario import generate, preset_config, render_frames
from cctrack.tracker import (
    CentroidCorrelationTracker,
    TrackerConfig,
    associate,
)

from conftest import det
from oracles import associate_reference, best_gated_matching, check_lifecycle_update


def make_tracker(**overrides):
    defaults = dict(max_disappearance=3, max_distance=20.0, confidence_threshold=0.5)
    defaults.update(overrides)
    return CentroidCorrelationTracker(TrackerConfig(**defaults))


def square(cx, cy, size=10.0):
    half = size / 2
    return BoundingBox(cx - half, cy - half, cx + half, cy + half)


class TestConfig:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_disappearance", 3.0),
            ("detection_interval", 2.5),
            ("person_class_id", True),
            ("search_margin", "8"),
            ("max_distance", None),
            ("confidence_threshold", False),
        ],
    )
    def test_mistyped_fields_rejected(self, key, value):
        with pytest.raises(TypeError, match=f"{key} must be"):
            TrackerConfig(**{key: value})

    def test_numpy_scalars_accepted(self):
        config = TrackerConfig(
            max_disappearance=np.int64(3),
            detection_interval=np.int32(2),
            max_distance=np.float32(10.0),
            confidence_threshold=np.float64(0.5),
        )
        assert config.detection_interval == 2


class TestAssociate:
    def test_single_pair_within_range(self):
        result = associate([(0, Point(0, 0))], [(0, Point(1, 0))], 5.0)
        assert result.matches == ((0, 0),)
        assert result.unmatched_tracks == ()
        assert result.unmatched_incoming == ()

    def test_gating_excludes_only_pair(self):
        result = associate([(0, Point(0, 0))], [(0, Point(10, 0))], 5.0)
        assert result.matches == ()
        assert result.unmatched_tracks == (0,)
        assert result.unmatched_incoming == (0,)

    def test_two_by_two_matches_brute_force(self):
        existing = [(0, Point(0, 0)), (1, Point(10, 0))]
        incoming = [(0, Point(1, 0)), (1, Point(9, 0))]
        result = associate(existing, incoming, 5.0)
        assert set(result.matches) == {(0, 0), (1, 1)}
        oracle_pairs, size, _ = best_gated_matching(
            [(tid, (p.x, p.y)) for tid, p in existing],
            [(i, (p.x, p.y)) for i, p in incoming],
            5.0,
        )
        assert set(result.matches) == set(oracle_pairs)
        assert len(result.matches) == size

    def test_empty_inputs(self):
        result = associate([], [], 5.0)
        assert result == ((), (), ())

    def test_distance_ties_break_by_track_then_index(self):
        # two tracks equidistant from one point: lower track id wins
        existing = [(3, Point(0, 0)), (1, Point(2, 0))]
        incoming = [(0, Point(1, 0))]
        result = associate(existing, incoming, 5.0)
        assert result.matches == ((1, 0),)
        # one track equidistant from two points: lower incoming index wins
        existing = [(0, Point(0, 0))]
        incoming = [(1, Point(1, 0)), (0, Point(-1, 0))]
        result = associate(existing, incoming, 5.0)
        assert result.matches == ((0, 0),)

    def test_random_instances_against_oracles(self, rng):
        for _ in range(500):
            n_tracks = int(rng.integers(0, 6))
            n_points = int(rng.integers(0, 6))
            max_distance = float(rng.uniform(5, 40))
            existing = [(tid, Point(*rng.uniform(0, 100, 2))) for tid in range(n_tracks)]
            incoming = [(i, Point(*rng.uniform(0, 100, 2))) for i in range(n_points)]
            result = associate(existing, incoming, max_distance)

            # exactly the documented greedy rule
            assert result == associate_reference(existing, incoming, max_distance)
            # one-to-one
            track_ids = [t for t, _ in result.matches]
            indices = [i for _, i in result.matches]
            assert len(set(track_ids)) == len(track_ids)
            assert len(set(indices)) == len(indices)
            # gating
            positions = dict(existing)
            points = dict(incoming)
            for tid, i in result.matches:
                d = np.hypot(positions[tid].x - points[i].x, positions[tid].y - points[i].y)
                assert d <= max_distance + 1e-9
            # maximality: no acceptable pair left with both sides unclaimed
            for tid in result.unmatched_tracks:
                for i in result.unmatched_incoming:
                    d = np.hypot(positions[tid].x - points[i].x, positions[tid].y - points[i].y)
                    assert d > max_distance
            # never better than the exhaustive optimum, equal when they coincide
            plain_existing = [(tid, (p.x, p.y)) for tid, p in existing]
            plain_incoming = [(i, (p.x, p.y)) for i, p in incoming]
            oracle_pairs, best_size, best_total = best_gated_matching(
                plain_existing, plain_incoming, max_distance
            )
            assert len(result.matches) <= best_size
            if set(result.matches) == set(oracle_pairs):
                assert len(result.matches) == best_size


_GATES = (0.5, 1.0, 5.0, 50.0)


@st.composite
def _gate_edge_pair(draw, gate):
    """A track and a point whose x gap is one ulp off the gate, where the
    computed dx can round onto the gate (x = 20.100000000000005 against
    -29.9 at gate 50 gives dx == 50.0)."""
    px = draw(st.floats(-gate, gate, allow_nan=False, allow_infinity=False))
    sign = draw(st.sampled_from((1.0, -1.0)))
    tx = px + sign * gate
    tx = draw(st.sampled_from((tx, math.nextafter(tx, math.inf), math.nextafter(tx, -math.inf))))
    y = draw(st.floats(-gate, gate, allow_nan=False, allow_infinity=False))
    dy = draw(st.sampled_from((0.0, 5e-324, gate / 1e9)))
    return (tx, y), (px, y + dy)


@st.composite
def association_cases(draw):
    gate = draw(st.sampled_from(_GATES))
    family = draw(st.sampled_from(("lattice", "far", "edge")))
    if family == "edge":
        pairs = draw(st.lists(_gate_edge_pair(gate), max_size=4))
        track_points = [t for t, _ in pairs]
        incoming_points = [p for _, p in pairs]
        points = st.sampled_from(track_points + incoming_points or [(0.0, 0.0)])
        track_points += draw(st.lists(points, max_size=2))
        incoming_points += draw(st.lists(points, max_size=2))
    else:
        if family == "lattice":
            # Lattice steps make distance ties and pairs exactly at the gate
            # common (3-4-5 offsets on the 1 px lattice with gate 5).
            step = draw(st.sampled_from((0.25, 1.0, 3.0)))
            span = max(4, int(3 * gate / step))
            coord = st.integers(-span, span).map(lambda k: k * step)
        else:
            # Large coordinates: near 1e6 and across the 2**20 binade edge.
            base = draw(st.sampled_from((1e6, 2.0**20)))
            offset = st.floats(-3 * gate, 3 * gate, allow_nan=False, allow_infinity=False)
            lattice = st.integers(-12, 12).map(lambda k: k * gate / 4)
            coord = st.one_of(offset, lattice).map(lambda v: base + v)
        points = st.tuples(coord, coord)
        track_points = draw(st.lists(points, max_size=8))
        incoming_points = draw(st.lists(points, max_size=8))
        # Duplicate points, within and across the two sides.
        shared = track_points + incoming_points
        if shared:
            incoming_points += draw(st.lists(st.sampled_from(shared), max_size=3))
        # Points exactly one gate from a track along an axis or a 3-4-5 diagonal.
        if track_points:
            offsets = st.sampled_from(
                ((gate, 0.0), (0.0, gate), (-gate, 0.0), (0.0, -gate), (0.6 * gate, -0.8 * gate))
            )
            for (x, y), (dx, dy) in draw(
                st.lists(st.tuples(st.sampled_from(track_points), offsets), max_size=3)
            ):
                incoming_points.append((x + dx, y + dy))
    track_ids = draw(
        st.lists(st.integers(0, 60), min_size=len(track_points), max_size=len(track_points),
                 unique=True)
    )
    indices = draw(
        st.lists(st.integers(0, 60), min_size=len(incoming_points),
                 max_size=len(incoming_points), unique=True)
    )
    existing = [(tid, Point(*xy)) for tid, xy in zip(track_ids, track_points)]
    incoming = [(i, Point(*xy)) for i, xy in zip(indices, incoming_points)]
    return existing, incoming, gate


class TestAssociateAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(association_cases())
    def test_equals_all_pairs_reference(self, case):
        existing, incoming, gate = case
        assert associate(existing, incoming, gate) == associate_reference(existing, incoming, gate)

    def test_gap_that_rounds_onto_the_gate_is_kept(self):
        # 20.100000000000005 - (-29.9) rounds to exactly 50.0, though the
        # true gap is one ulp wider; the all-pairs loop matches this pair.
        px = -29.9
        tx = math.nextafter(50.0 + px, math.inf)
        assert tx - px == 50.0
        existing = [(0, Point(tx, 0.0))]
        incoming = [(0, Point(px, 0.0))]
        assert associate(existing, incoming, 50.0).matches == ((0, 0),)
        assert associate(existing, incoming, 50.0) == associate_reference(existing, incoming, 50.0)

    def test_pair_exactly_at_the_gate_on_either_axis(self):
        existing = [(0, Point(0.0, 0.0))]
        for offset in ((5.0, 0.0), (0.0, 5.0), (-5.0, 0.0), (0.0, -5.0), (3.0, 4.0)):
            result = associate(existing, [(0, Point(*offset))], 5.0)
            assert result.matches == ((0, 0),)


class TestLifecycle:
    def test_cold_start_registers_all(self):
        tracker = make_tracker()
        update = tracker.update(0, [det(0, 0, 0, 10, 10, 0.9), det(0, 50, 50, 60, 60, 0.8)])
        assert update.registered == (0, 1)
        assert update.matched == ()
        assert [t.id for t in tracker.live_tracks()] == [0, 1]

    def test_below_threshold_detections_discarded(self):
        tracker = make_tracker(confidence_threshold=0.6)
        update = tracker.update(0, [det(0, 0, 0, 10, 10, 0.59)])
        assert update.registered == ()
        assert tracker.live_tracks() == []

    def test_foreign_class_detections_ignored(self):
        tracker = make_tracker()
        update = tracker.update(0, [det(0, 0, 0, 10, 10, 0.9, class_id=7)])
        assert update.registered == ()

    def test_single_step_match(self):
        tracker = make_tracker(max_distance=20.0)
        tracker.update(0, [det(0, 45, 45, 55, 55, 0.9)])  # centroid (50, 50)
        update = tracker.update(1, [det(1, 47, 45, 57, 55, 0.9)])  # centroid (52, 50)
        assert len(update.matched) == 1
        track_id, matched_det = update.matched[0]
        assert track_id == 0
        (track,) = tracker.live_tracks()
        assert track.disappeared == 0
        assert len(track.history) == 2
        assert track.centroid == centroid(matched_det.bbox) == Point(52, 50)

    def test_deregistration_exactness(self):
        max_gone = 3
        tracker = make_tracker(max_disappearance=max_gone)
        tracker.update(0, [det(0, 0, 0, 10, 10, 0.9)])
        # unmatched for exactly max_disappearance frames: still live
        for frame in range(1, max_gone + 1):
            update = tracker.update(frame, [])
            assert update.disappeared_incremented == (0,)
            assert update.deregistered == ()
        (track,) = tracker.live_tracks()
        assert track.disappeared == max_gone
        # one more unmatched frame removes it
        update = tracker.update(max_gone + 1, [])
        assert update.deregistered == (0,)
        assert update.disappeared_incremented == ()
        assert tracker.live_tracks() == []

    def test_reappearing_detection_resets_counter(self):
        tracker = make_tracker()
        tracker.update(0, [det(0, 0, 0, 10, 10, 0.9)])
        tracker.update(1, [])
        tracker.update(2, [det(2, 1, 0, 11, 10, 0.9)])
        (track,) = tracker.live_tracks()
        assert track.disappeared == 0

    def test_identity_preserved_for_slow_mover(self):
        tracker = make_tracker(max_distance=15.0)
        for frame in range(60):
            cx = 20.0 + 5.0 * frame  # 5 px/frame < max_distance
            update = tracker.update(frame, [det(frame, cx - 5, 15, cx + 5, 25, 0.9)])
            if frame == 0:
                assert update.registered == (0,)
            else:
                assert update.matched[0][0] == 0
        (track,) = tracker.live_tracks()
        assert track.id == 0
        assert len(track.history) == 60
        frames = [f for f, _ in track.history]
        assert frames == sorted(frames) and len(set(frames)) == 60

    def test_far_detection_registers_new_identity(self):
        tracker = make_tracker(max_distance=10.0)
        tracker.update(0, [det(0, 0, 0, 10, 10, 0.9)])
        update = tracker.update(1, [det(1, 100, 100, 110, 110, 0.9)])
        assert update.registered == (1,)
        assert update.disappeared_incremented == (0,)

    def test_ids_never_reused(self):
        tracker = make_tracker(max_disappearance=1, max_distance=5.0)
        seen = []
        rng = np.random.default_rng(7)
        for frame in range(60):
            dets = [
                det(frame, x, y, x + 8, y + 8, 0.9)
                for x, y in rng.uniform(0, 400, size=(rng.integers(0, 4), 2))
            ]
            update = tracker.update(frame, dets)
            seen.extend(update.registered)
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen)

    def test_live_track_ids_ascend_in_registration_order(self):
        tracker = make_tracker()
        tracker.update(
            0, [det(0, i * 100, 0, i * 100 + 10, 10, 0.9) for i in range(5)]
        )
        assert [t.id for t in tracker.live_tracks()] == [0, 1, 2, 3, 4]

    def test_fresh_tracker_has_no_live_tracks(self):
        assert make_tracker().live_tracks() == []

    def test_register_three_deregister_one(self):
        tracker = make_tracker(max_disappearance=1, max_distance=5.0)
        tracker.update(0, [det(0, i * 100, 0, i * 100 + 10, 10, 0.9) for i in range(3)])
        # only tracks 0 and 2 keep being detected; track 1 ages out
        survivors = [det(1, 0, 0, 10, 10, 0.9), det(1, 200, 0, 210, 10, 0.9)]
        tracker.update(1, survivors)
        final = tracker.update(
            2, [det(2, 0, 0, 10, 10, 0.9), det(2, 200, 0, 210, 10, 0.9)]
        )
        assert final.deregistered == (1,)
        live = tracker.live_tracks()
        assert len(live) == 2
        assert [t.id for t in live] == [0, 2]

    def test_update_validates_frame_order_and_origin(self):
        tracker = make_tracker()
        tracker.update(5, [])
        with pytest.raises(ValueError, match="must increase"):
            tracker.update(5, [])
        with pytest.raises(ValueError, match="must increase"):
            tracker.update(3, [])
        with pytest.raises(ValueError, match="frame 9"):
            tracker.update(8, [det(9, 0, 0, 10, 10, 0.9)])

    def test_snapshots_are_immutable_copies(self):
        tracker = make_tracker()
        tracker.update(0, [det(0, 0, 0, 10, 10, 0.9)])
        snap = tracker.live_tracks()[0]
        tracker.update(1, [det(1, 2, 0, 12, 10, 0.9)])
        assert len(snap.history) == 1  # old snapshot unaffected
        with pytest.raises(AttributeError):
            snap.disappeared = 99


class TestConservationInvariants:
    def test_randomized_sequences(self, rng):
        for _ in range(120):
            config = TrackerConfig(
                max_disappearance=int(rng.integers(1, 4)),
                max_distance=float(rng.uniform(10, 60)),
                confidence_threshold=0.5,
            )
            tracker = CentroidCorrelationTracker(config)
            registered_ever = []
            for frame in range(int(rng.integers(5, 25))):
                entering = {t.id: t.centroid for t in tracker.live_tracks()}
                n = int(rng.integers(0, 6))
                dets = [
                    det(frame, x, y, x + 10, y + 10, float(conf))
                    for (x, y), conf in zip(
                        rng.uniform(0, 200, size=(n, 2)), rng.uniform(0, 1, size=n)
                    )
                ]
                update = tracker.update(frame, dets)
                check_lifecycle_update(
                    config, entering, dets, update, tracker.live_tracks(), registered_ever
                )

    def test_determinism_of_update_stream(self, rng):
        frames = []
        for frame in range(20):
            n = int(rng.integers(0, 5))
            frames.append(
                [
                    det(frame, x, y, x + 12, y + 12, float(conf))
                    for (x, y), conf in zip(
                        rng.uniform(0, 150, size=(n, 2)), rng.uniform(0.3, 1, size=n)
                    )
                ]
            )
        runs = []
        for _ in range(2):
            tracker = make_tracker()
            runs.append([tracker.update(i, frame_dets) for i, frame_dets in enumerate(frames)])
        assert runs[0] == runs[1]


class TestPositions:
    def test_positions_match_live_tracks(self):
        config = preset_config("large", frame_count=30, rng_seed=3)
        scenario = generate(config)
        frames = render_frames(scenario)
        by_frame = group_by_frame(scenario.detections)
        tracker = CentroidCorrelationTracker(TrackerConfig(detection_interval=3))
        seen = {"matched": 0, "registered": 0, "correlated": 0}
        for index, pixels in enumerate(frames):
            detections = by_frame.get(index, ()) if tracker.detects_next else ()
            update = tracker.update(index, detections, pixels)
            moved = sorted(
                [tid for tid, _ in update.matched]
                + list(update.registered)
                + list(update.correlated)
            )
            live = {track.id: track.centroid for track in tracker.live_tracks()}
            # Every moved track, ids ascending, at its position after the update.
            assert update.positions == tuple((tid, live[tid]) for tid in moved)
            for name in seen:
                seen[name] += len(getattr(update, name))
        assert all(seen.values()), seen

    def test_positions_ascend_when_association_order_does_not(self):
        tracker = make_tracker(max_distance=20.0)
        tracker.update(0, [det(0, 0, 0, 10, 10, 0.9), det(0, 100, 0, 110, 10, 0.9)])
        # Track 1's detection is nearer than track 0's, so it is matched first.
        near_one = det(1, 101, 0, 111, 10, 0.9)
        near_zero = det(1, 5, 0, 15, 10, 0.9)
        update = tracker.update(1, [near_zero, near_one, det(1, 50, 50, 60, 60, 0.9)])
        assert update.matched == ((1, near_one), (0, near_zero))
        assert update.registered == (2,)
        assert [tid for tid, _ in update.positions] == [0, 1, 2]
        live = {track.id: track.centroid for track in tracker.live_tracks()}
        assert update.positions == tuple(live.items())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 40), st.integers(0, 40), st.sampled_from([0.3, 0.9])),
                max_size=4,
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_every_update_lists_ids_ascending(
        self, stream, interval, max_disappearance, with_pixels, seed
    ):
        tracker = make_tracker(
            detection_interval=interval,
            max_disappearance=max_disappearance,
            max_distance=15.0,
            search_margin=3,
        )
        pixels = np.random.default_rng(seed).integers(0, 256, size=(len(stream), 60, 60))
        for index, boxes in enumerate(stream):
            detections = [det(index, x, y, x + 10, y + 10, c) for x, y, c in boxes]
            update = tracker.update(
                index,
                detections if tracker.detects_next else (),
                pixels[index].astype(np.uint8) if with_pixels else None,
            )
            ids = [tid for tid, _ in update.positions]
            moved = [tid for tid, _ in update.matched] + [*update.registered, *update.correlated]
            assert ids == sorted(moved)
            for name in ("disappeared_incremented", "deregistered", "registered", "correlated"):
                listed = getattr(update, name)
                assert list(listed) == sorted(listed), name
            live = [track.id for track in tracker.live_tracks()]
            assert live == sorted(live)


class TestCorrelationFrames:
    @staticmethod
    def stamped_frame(h, w, tile, x, y):
        frame = np.full((h, w), 25, dtype=np.uint8)
        frame[y : y + tile.shape[0], x : x + tile.shape[1]] = tile
        return frame

    def test_interleaved_detection_and_correlation(self, rng):
        tile = rng.integers(60, 220, size=(16, 16)).astype(np.uint8)
        positions = [(20, 30), (23, 28), (26, 26), (29, 24), (32, 22)]
        frames = [self.stamped_frame(100, 120, tile, x, y) for x, y in positions]
        tracker = make_tracker(detection_interval=4, max_distance=30.0, search_margin=8)

        x0, y0 = positions[0]
        first = tracker.update(0, [det(0, x0, y0, x0 + 16, y0 + 16, 0.9)], frames[0])
        assert first.registered == (0,)
        for frame_index in range(1, 4):
            update = tracker.update(frame_index, (), frames[frame_index])
            assert update.correlated == (0,)
            (track,) = tracker.live_tracks()
            x, y = positions[frame_index]
            assert (track.bbox.x1, track.bbox.y1) == (x, y)
        # frame 4 is a detection frame again; the track re-matches in place
        x4, y4 = positions[4]
        update = tracker.update(4, [det(4, x4, y4, x4 + 16, y4 + 16, 0.9)], frames[4])
        assert [tid for tid, _ in update.matched] == [0]

    def test_detections_rejected_on_correlation_frames(self):
        tracker = make_tracker(detection_interval=3)
        tracker.update(0, [det(0, 0, 0, 10, 10, 0.9)])
        with pytest.raises(ValueError, match="correlation-scheduled"):
            tracker.update(1, [det(1, 0, 0, 10, 10, 0.9)])
        # the failed call must not consume the frame slot or the schedule
        assert tracker.detects_next is False
        update = tracker.update(1, ())
        assert update.frame_index == 1
        assert update.correlated == ()  # no pixels were supplied
        tracker.update(2, ())
        assert tracker.detects_next is True
        with pytest.raises(ValueError, match="must increase"):
            tracker.update(2, ())
        assert tracker.detects_next is True

    def test_detects_next_counts_calls_not_frame_indices(self):
        tracker = make_tracker(detection_interval=3)
        seen = []
        for frame in (0, 7, 8, 20):
            seen.append(tracker.detects_next)
            detections = [det(frame, 0, 0, 10, 10, 0.9)] if tracker.detects_next else ()
            update = tracker.update(frame, detections)
        assert seen == [True, False, False, True]
        assert [tid for tid, _ in update.matched] == [0]  # frame 20 ran the detector

    def test_correlation_without_pixels_coasts(self):
        tracker = make_tracker(detection_interval=2)
        tracker.update(0, [det(0, 10, 10, 26, 26, 0.9)])
        update = tracker.update(1, ())
        assert update.correlated == ()
        (track,) = tracker.live_tracks()
        assert track.disappeared == 0
        assert len(track.history) == 1

    def test_history_frame_indices_strictly_increase(self, rng):
        tile = rng.integers(60, 220, size=(12, 12)).astype(np.uint8)
        frames = [self.stamped_frame(60, 60, tile, 10 + 2 * i, 12) for i in range(6)]
        tracker = make_tracker(detection_interval=2, search_margin=6)
        tracker.update(0, [det(0, 10, 12, 22, 24, 0.9)], frames[0])
        for i in range(1, 6):
            x = 10 + 2 * i
            detections = [det(i, x, 12, x + 12, 24, 0.9)] if tracker.detects_next else ()
            tracker.update(i, detections, frames[i])
        (track,) = tracker.live_tracks()
        history_frames = [f for f, _ in track.history]
        assert history_frames == list(range(6))
