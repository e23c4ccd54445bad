import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cctrack import evaluation
from cctrack.evaluation import (
    NINE_THRESHOLDS,
    ConfusionCounts,
    GroundTruthRecord,
    count_tn,
    evaluate_at,
    match_frame,
    metrics,
    threshold_sweep,
)
from cctrack.geometry import BoundingBox
from cctrack.scenario import generate, preset_config

from conftest import det
from oracles import greedy_match_reference, max_assignment_tp


def gt(frame, x1, y1, x2, y2, object_id=0):
    return GroundTruthRecord(frame, BoundingBox(x1, y1, x2, y2), object_id)


class TestConfusionCounts:
    def test_n_is_always_the_sum(self):
        counts = ConfusionCounts(3, 1, 2, 4)
        assert counts.n == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestMetrics:
    def test_direct_equation_substitution(self):
        values = metrics(ConfusionCounts(8, 2, 2, 0))
        assert values.precision == 0.8
        assert values.recall == 0.8
        assert values.accuracy == 8 / 12
        assert values.degenerate == ()

    def test_degenerate_conventions(self):
        values = metrics(ConfusionCounts(0, 0, 0, 5))
        assert values.precision == 0.0
        assert values.recall == 0.0
        assert values.accuracy == 1.0
        assert set(values.degenerate) == {"precision", "recall"}

    def test_perfect_run_hits_unity_everywhere(self):
        values = metrics(ConfusionCounts(37, 0, 0, 0))
        assert (values.precision, values.recall, values.accuracy) == (1.0, 1.0, 1.0)

    def test_all_outputs_in_unit_interval(self, rng):
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, 4))
            values = metrics(ConfusionCounts(tp, fp, fn, tn))
            for v in values[:3]:
                assert 0.0 <= v <= 1.0
            # accuracy is 1 exactly when nothing was missed or hallucinated
            if tp + fp + fn + tn > 0:
                assert (values.accuracy == 1.0) == (fp == 0 and fn == 0)


class TestMatchFrame:
    def test_exact_match(self):
        assert match_frame([det(0, 0, 0, 10, 10)], [gt(0, 0, 0, 10, 10)], 0.5) == (1, 0, 0)

    def test_forced_fp_and_fn(self):
        assert match_frame([det(0, 0, 0, 10, 10)], [], 0.5) == (0, 1, 0)
        assert match_frame([], [gt(0, 0, 0, 10, 10)], 0.5) == (0, 0, 1)

    def test_two_detections_one_truth(self):
        detections = [
            det(0, 0, 0, 10, 10, confidence=0.9),
            det(0, 1, 0, 11, 10, confidence=0.8),
        ]
        truth = [gt(0, 0, 0, 10, 10)]
        result = match_frame(detections, truth, 0.5)
        assert result == (1, 1, 0)
        # exhaustive assignment agrees: only one pair is achievable
        assert max_assignment_tp(
            [d.bbox.as_tuple() for d in detections], [g.bbox.as_tuple() for g in truth], 0.5
        ) == 1

    def test_confidence_orders_the_matching(self):
        # the higher-confidence detection claims the only truth box
        truth = [gt(0, 0, 0, 10, 10)]
        low_first = [det(0, 0, 0, 10, 10, 0.6), det(0, 2, 0, 12, 10, 0.9)]
        tp, fp, fn = match_frame(low_first, truth, 0.3)
        assert (tp, fp, fn) == (1, 1, 0)

    def test_equal_confidence_ties_break_by_input_index(self):
        a = det(0, 0, 0, 10, 10, 0.7)
        b = det(0, 1, 0, 11, 10, 0.7)
        truth = [gt(0, 0, 0, 10, 10)]
        # deterministic either order; the first-listed one wins the match
        assert match_frame([a, b], truth, 0.3) == (1, 1, 0)
        assert match_frame([b, a], truth, 0.3) == (1, 1, 0)

    def test_mixed_frames_rejected(self):
        with pytest.raises(ValueError, match="multiple frames"):
            match_frame([det(0, 0, 0, 10, 10)], [gt(1, 0, 0, 10, 10)], 0.5)

    def test_counts_tie_out_per_frame(self, rng):
        for _ in range(100):
            n_det = int(rng.integers(0, 6))
            n_gt = int(rng.integers(0, 6))
            detections = [
                det(0, x, y, x + 12, y + 12, float(c))
                for (x, y), c in zip(
                    rng.uniform(0, 60, size=(n_det, 2)), rng.uniform(0, 1, size=n_det)
                )
            ]
            truth = [
                gt(0, x, y, x + 12, y + 12, object_id=i)
                for i, (x, y) in enumerate(rng.uniform(0, 60, size=(n_gt, 2)))
            ]
            tp, fp, fn = match_frame(detections, truth, 0.5)
            assert tp + fp == n_det
            assert tp + fn == n_gt
            # greedy can never beat the exhaustive optimum
            assert tp <= max_assignment_tp(
                [d.bbox.as_tuple() for d in detections],
                [g.bbox.as_tuple() for g in truth],
                0.5,
            )


# Quarter-pixel corners make IoU of exactly 0.5 common (e.g. [0, 0, 2, 1]
# against [0, 0, 1, 1]); zero sides give zero-area boxes.
_QUARTER = st.integers(0, 12).map(lambda q: q / 4)
_SIDE = st.one_of(st.just(0.0), st.integers(1, 8).map(lambda q: q / 4))


# The nine boxes with corners on a 3x3 lattice: distinct boxes often tie on IoU.
_LATTICE_BOXES = [
    (x1, y1, x2, y2)
    for x1 in range(2) for x2 in range(x1 + 1, 3) for y1 in range(2) for y2 in range(y1 + 1, 3)
]


@st.composite
def _quarter_box(draw):
    x1, y1 = draw(_QUARTER), draw(_QUARTER)
    return (x1, y1, x1 + draw(_SIDE), y1 + draw(_SIDE))


def _corners():
    return st.one_of(_quarter_box(), st.sampled_from(_LATTICE_BOXES))


@st.composite
def matching_frames(draw):
    truth = draw(st.lists(_corners(), max_size=6))
    if truth:
        # Repeated ground-truth boxes tie on IoU; repeated as detections they score 1.
        truth = draw(st.permutations(truth + draw(st.lists(st.sampled_from(truth), max_size=3))))
        det_boxes = draw(st.lists(st.one_of(_corners(), st.sampled_from(truth)), max_size=8))
    else:
        det_boxes = draw(st.lists(_corners(), max_size=8))
    confidences = st.sampled_from((0.3, 0.5, 0.9))
    detections = [det(0, *box, draw(confidences)) for box in det_boxes]
    records = [gt(0, *box, object_id=i) for i, box in enumerate(truth)]
    return detections, records, draw(st.sampled_from((0.3, 0.5, 1.0)))


class TestMatchFrameAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(matching_frames())
    def test_equals_greedy_reference(self, case):
        detections, truth, iou_threshold = case
        assert match_frame(detections, truth, iou_threshold) == greedy_match_reference(
            detections, truth, iou_threshold
        )

    def test_iou_of_exactly_half_passes_the_default_gate(self):
        assert match_frame([det(0, 0, 0, 2, 1)], [gt(0, 0, 0, 1, 1)]) == (1, 0, 0)
        assert match_frame([det(0, 0, 0, 2, 1)], [gt(0, 0, 0, 1, 1)], 0.5000001) == (0, 1, 1)

    def test_iou_ties_go_to_the_lowest_ground_truth_index(self):
        # The wide box scores 0.5 on both halves and must claim the left one,
        # leaving the right half to nobody.
        wide, left = det(0, 0, 0, 2, 2, 0.9), det(0, 0, 0, 1, 2, 0.5)
        truth = [gt(0, 0, 0, 1, 2, object_id=0), gt(0, 1, 0, 2, 2, object_id=1)]
        assert match_frame([wide, left], truth) == (1, 1, 1)

    def test_confidence_ties_visit_detections_in_input_order(self):
        wide, left = det(0, 0, 0, 2, 2, 0.5), det(0, 0, 0, 1, 2, 0.5)
        truth = [gt(0, 0, 0, 1, 2, object_id=0), gt(0, 1, 0, 2, 2, object_id=1)]
        assert match_frame([wide, left], truth) == (1, 1, 1)
        assert match_frame([left, wide], truth) == (2, 0, 0)

    def test_zero_area_boxes_never_match(self):
        assert match_frame([det(0, 1, 1, 1, 5)], [gt(0, 1, 1, 1, 5)], 0.3) == (0, 1, 1)

    def test_dense_crowd_sweep_equals_the_reference_matcher(self, monkeypatch):
        cfg = preset_config("large", num_people=100, frame_count=20, rng_seed=0)
        scn = generate(cfg)
        rows = threshold_sweep(scn.detections, scn.ground_truth, frame_count=cfg.frame_count)
        monkeypatch.setattr(evaluation, "match_frame", greedy_match_reference)
        expected = threshold_sweep(scn.detections, scn.ground_truth, frame_count=cfg.frame_count)
        assert rows == expected
        assert rows[0].counts.tp > 0 and rows[0].counts.fp > 0


# Left edges over a span much wider than most boxes, widths from zero to
# the whole span: a wide box reaches detections far to its right, so the
# strip each detection scans must come from the boxes' right edges, not
# from its own width.
_STRIP_X = st.integers(0, 40).map(lambda q: q / 2)
_STRIP_WIDTH = st.sampled_from((0.0, 0.5, 1.0, 1.5, 3.0, 8.0, 30.0))


@st.composite
def _strip_box(draw):
    x1, y1 = draw(_STRIP_X), draw(st.integers(0, 4).map(lambda q: q / 2))
    return (x1, y1, x1 + draw(_STRIP_WIDTH), y1 + draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))))


@st.composite
def strip_frames(draw):
    truth = draw(st.lists(_strip_box(), max_size=12))
    extra = st.sampled_from(truth) if truth else _strip_box()
    # Repeated boxes tie on IoU, and a repeated truth box is also a detection scoring 1.
    truth = draw(st.permutations(truth + draw(st.lists(extra, max_size=3))))
    det_boxes = draw(st.lists(st.one_of(_strip_box(), extra), max_size=12))
    detections = [det(0, *box, draw(st.sampled_from((0.3, 0.5, 0.9)))) for box in det_boxes]
    records = [gt(0, *box, object_id=i) for i, box in enumerate(truth)]
    return detections, records, draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))


_BIG = 2.0**53


def _edge_cases():
    """Boxes whose edges differ by one ulp, and boxes out at +-2**53."""
    up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, -math.inf))
    ulp = [
        ([(up(1.0), 0, 2, 1)], [(0, 0, 1, 1)]),  # one ulp apart: no overlap
        ([(down(1.0), 0, 2, 1)], [(0, 0, 1, 1)]),  # one ulp of overlap
        ([(0, 0, 1, 1)], [(up(1.0), 0, 2, 1), (down(1.0), 0, 3, 1), (-5, 0, up(0.0), 1)]),
        ([(5, 0, 6, 1), (0, 0, down(5.0), 1)], [(0, 0, 5, 1), (0, 0, up(5.0), 1), (5, 0, 9, 1)]),
    ]
    # Beside a box 2**54 wide, x1 - widest is not a float for an odd x1.
    wide = (-_BIG, 0, _BIG, 1)
    big = [
        ([(_BIG - 1, 0, _BIG, 1), (_BIG - 2, 0, _BIG, 1)], [wide, (_BIG - 2, 0, _BIG, 1)]),
        ([(_BIG - 3, 0, _BIG - 1, 1)], [(-_BIG, 0, -_BIG + 1, 1), wide, (_BIG - 2, 0, _BIG, 1)]),
        ([(-_BIG, 0, -_BIG + 2, 1), (down(_BIG), 0, _BIG, 1)], [(-_BIG, 0, -_BIG + 1, 1), wide]),
        ([wide, (-_BIG + 1, 0, -_BIG + 3, 1)], [(_BIG - 4, 0, _BIG - 2, 1), (-_BIG, 0, -_BIG + 2, 1)]),
    ]
    return ulp + big


class TestPrunedMatching:
    """match_frame scores only boxes that can overlap, with the same result as scoring all."""

    @settings(max_examples=500, deadline=None)
    @given(strip_frames())
    def test_equals_greedy_reference(self, case):
        detections, truth, iou_threshold = case
        assert match_frame(detections, truth, iou_threshold) == greedy_match_reference(
            detections, truth, iou_threshold
        )

    @pytest.mark.parametrize("det_boxes, truth_boxes", _edge_cases())
    @pytest.mark.parametrize("iou_threshold", (0.0, 1e-17, 0.5, 1.0))
    def test_edges_one_ulp_apart_and_near_2_to_the_53(self, det_boxes, truth_boxes, iou_threshold):
        detections = [det(0, *box, 0.5) for box in det_boxes]
        truth = [gt(0, *box, object_id=i) for i, box in enumerate(truth_boxes)]
        for order in (truth, truth[::-1]):
            assert match_frame(detections, order, iou_threshold) == greedy_match_reference(
                detections, order, iou_threshold
            )

    def test_one_ulp_of_overlap_is_a_match_at_gate_zero(self):
        down = math.nextafter(1.0, 0.0)
        assert match_frame([det(0, down, 0, 2, 1)], [gt(0, 0, 0, 1, 1)], 0.0) == (1, 0, 0)
        assert match_frame([det(0, 1, 0, 2, 1)], [gt(0, 0, 0, 1, 1)], 0.0) == (0, 1, 1)

    def test_dense_crowd_frame_at_every_sweep_threshold(self):
        cfg = preset_config("large", num_people=100, frame_count=1, rng_seed=0)
        scn = generate(cfg)
        assert len(scn.ground_truth) == 100 and len(scn.detections) > 50
        for threshold in NINE_THRESHOLDS:
            kept = [d for d in scn.detections if d.confidence >= threshold]
            assert match_frame(kept, scn.ground_truth) == greedy_match_reference(
                kept, scn.ground_truth, 0.5
            )


class TestCountTn:
    def test_all_empty_frames(self):
        assert count_tn(10, [], []) == 10

    def test_truth_everywhere_means_zero(self):
        truth = [gt(f, 0, 0, 10, 10) for f in range(5)]
        assert count_tn(5, [], truth) == 0

    def test_hand_counted_frame_table(self):
        # truth and detections in frames 0..2 only; frames 3 and 4 are empty
        truth = [gt(f, 0, 0, 10, 10) for f in range(3)]
        detections = [det(f, 0, 0, 10, 10, 0.9) for f in range(3)]
        assert count_tn(5, detections, truth) == 2

    def test_detection_only_frame_is_not_tn(self):
        detections = [det(2, 0, 0, 10, 10, 0.9)]
        assert count_tn(4, detections, []) == 3

    def test_frames_past_the_universe_are_ignored(self):
        detections = [det(2, 0, 0, 10, 10, 0.9), det(7, 0, 0, 10, 10, 0.9)]
        assert count_tn(4, detections, [gt(4, 0, 0, 10, 10)]) == 3

    def test_cost_does_not_grow_with_the_largest_frame_index(self):
        start = time.perf_counter()
        report = evaluate_at([det(10**12, 0, 0, 10, 10, 0.9)], [], 0.5)
        assert time.perf_counter() - start < 1.0
        assert report.counts == ConfusionCounts(tp=0, fp=1, fn=0, tn=10**12)


class TestEvaluateAt:
    def test_threshold_zero_is_a_no_op_filter(self, rng):
        detections = [
            det(f, x, y, x + 10, y + 10, float(c))
            for f, ((x, y), c) in enumerate(
                zip(rng.uniform(0, 50, size=(8, 2)), rng.uniform(0.05, 1, size=8))
            )
        ]
        truth = [gt(f, 0, 0, 10, 10) for f in range(8)]
        at_zero = evaluate_at(detections, truth, 0.0)
        unfiltered_tp = sum(
            match_frame([d for d in detections if d.frame_index == f],
                        [g for g in truth if g.frame_index == f], 0.5)[0]
            for f in range(8)
        )
        assert at_zero.counts.tp == unfiltered_tp
        assert at_zero.counts.tp + at_zero.counts.fp == len(detections)

    def test_threshold_above_everything(self):
        detections = [det(0, 0, 0, 10, 10, 0.5)]
        truth = [gt(0, 0, 0, 10, 10), gt(1, 20, 20, 30, 30, object_id=1)]
        report = evaluate_at(detections, truth, 0.99)
        assert report.counts.tp == 0
        assert report.counts.fp == 0
        assert report.counts.fn == 2
        assert report.precision == 0.0 and report.recall == 0.0
        assert "precision" in report.degenerate

    def test_report_metrics_recomputable_from_counts(self, rng):
        detections = [
            det(f % 4, x, y, x + 9, y + 9, float(c))
            for f, ((x, y), c) in enumerate(
                zip(rng.uniform(0, 40, size=(12, 2)), rng.uniform(0, 1, size=12))
            )
        ]
        truth = [gt(f, 5, 5, 14, 14) for f in range(4)]
        report = evaluate_at(detections, truth, 0.4)
        values = metrics(report.counts)
        assert (report.precision, report.recall, report.accuracy) == values[:3]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            evaluate_at([], [], 1.5)

    # The span counts every record: the detection at frame 6 is below any
    # threshold used here, and still lies in the frame universe.
    @pytest.mark.parametrize("evaluate", [
        lambda dets, truth, n: evaluate_at(dets, truth, 0.5, frame_count=n),
        lambda dets, truth, n: threshold_sweep(dets, truth, frame_count=n),
    ], ids=["evaluate_at", "threshold_sweep"])
    def test_frame_count_below_the_records_span_rejected(self, evaluate):
        detections = [det(2, 0, 0, 10, 10, 0.9), det(6, 0, 0, 10, 10, 0.05)]
        truth = [gt(4, 0, 0, 10, 10)]
        for frame_count in (0, 3, 6):
            with pytest.raises(ValueError, match=f"frame_count {frame_count} is below 7, "):
                evaluate(detections, truth, frame_count)
        assert evaluate(detections, truth, 7) == evaluate(detections, truth, None)
        evaluate(detections, truth, 8)


class TestThresholdSweep:
    def test_default_grid_is_the_nine_tenths(self):
        assert NINE_THRESHOLDS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_empty_threshold_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            threshold_sweep([], [], [])

    def test_closed_interval_accepted(self):
        # Each threshold is checked against [0, 1].
        assert [r.threshold for r in threshold_sweep([], [], [0.0, 1.0])] == [0.0, 1.0]
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got 1.5"):
            threshold_sweep([], [], [0.5, 1.5])

    def test_every_threshold_is_checked_before_any_evaluation(self, monkeypatch):
        def evaluate_at(*args, **kwargs):
            raise AssertionError("evaluate_at called before every threshold was checked")

        monkeypatch.setattr(evaluation, "evaluate_at", evaluate_at)
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got 1.5"):
            threshold_sweep([], [], [0.1, 1.5])
        with pytest.raises(ValueError, match="increasing"):
            threshold_sweep([], [], [0.1, 0.9, 0.5])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            threshold_sweep([], [], [0.5, 0.5])

    def test_tp_fp_non_increasing_in_threshold(self, rng):
        detections = [
            det(int(f), x, y, x + 10, y + 10, float(c))
            for f, (x, y), c in zip(
                rng.integers(0, 30, size=60),
                rng.uniform(0, 80, size=(60, 2)),
                rng.uniform(0, 1, size=60),
            )
        ]
        truth = [
            gt(f, x, y, x + 10, y + 10, object_id=i)
            for i, (f, (x, y)) in enumerate(
                zip(rng.integers(0, 30, size=25), rng.uniform(0, 80, size=(25, 2)))
            )
        ]
        # (frame, object_id) uniqueness not guaranteed by the sampler; fix ids
        reports = threshold_sweep(detections, truth, NINE_THRESHOLDS)
        tps = [r.counts.tp for r in reports]
        fps = [r.counts.fp for r in reports]
        assert all(a >= b for a, b in zip(tps, tps[1:]))
        assert all(a >= b for a, b in zip(fps, fps[1:]))

    def test_survivors_are_a_subset_as_threshold_rises(self, rng):
        confidences = rng.uniform(0, 1, size=40)
        for t1, t2 in zip(NINE_THRESHOLDS, NINE_THRESHOLDS[1:]):
            kept1 = {i for i, c in enumerate(confidences) if c >= t1}
            kept2 = {i for i, c in enumerate(confidences) if c >= t2}
            assert kept2 <= kept1

    def test_all_confident_detections_make_identical_reports(self):
        detections = [det(f, 0, 0, 10, 10, 1.0) for f in range(6)]
        truth = [gt(f, 0, 0, 10, 10) for f in range(6)]
        reports = threshold_sweep(detections, truth, NINE_THRESHOLDS)
        assert len(reports) == 9
        first = reports[0]
        for report in reports[1:]:
            assert report.counts == first.counts
            assert (report.precision, report.recall, report.accuracy) == (
                first.precision,
                first.recall,
                first.accuracy,
            )

    def test_eval_equals_matching_sweep_row(self, rng):
        detections = [
            det(int(f), x, y, x + 10, y + 10, float(c))
            for f, (x, y), c in zip(
                rng.integers(0, 20, size=30),
                rng.uniform(0, 60, size=(30, 2)),
                rng.uniform(0, 1, size=30),
            )
        ]
        truth = [
            gt(f, x, y, x + 10, y + 10, object_id=1000 + i)
            for i, (f, (x, y)) in enumerate(
                zip(rng.integers(0, 20, size=15), rng.uniform(0, 60, size=(15, 2)))
            )
        ]
        frame_count = 20
        reports = threshold_sweep(detections, truth, NINE_THRESHOLDS, frame_count=frame_count)
        for threshold, row in zip(NINE_THRESHOLDS, reports):
            single = evaluate_at(detections, truth, threshold, frame_count=frame_count)
            assert single == row


# Few scores, so ties and thresholds that keep one set both occur.
_SCORES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000001, 0.9, 1.0])


@st.composite
def _sweep_inputs(draw):
    detections = draw(st.lists(
        st.builds(
            det,
            st.integers(0, 5),
            st.integers(0, 20),
            st.integers(0, 20),
            st.integers(20, 30),
            st.integers(20, 30),
            _SCORES,
        ),
        max_size=12,
    ))
    truth = [
        gt(frame, x, y, x + 10, y + 10, object_id)
        for object_id, (frame, x, y) in enumerate(draw(st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 20), st.integers(0, 20)), max_size=8,
        )))
    ]
    # Thresholds equal to a score, between scores, and above every score.
    candidates = st.one_of(_SCORES, st.floats(0, 1))
    thresholds = sorted(draw(st.sets(candidates, min_size=1, max_size=9)))
    return detections, truth, thresholds


class TestSweepSharesRows:
    @settings(max_examples=300, deadline=None)
    @given(_sweep_inputs(), st.sampled_from([None, 8]))
    @example(([], [], [0.0, 0.5, 1.0]), None)
    @example(([det(0, 0, 0, 10, 10, 0.3)], [gt(1, 0, 0, 10, 10)], [0.0, 0.3, 0.5, 1.0]), None)
    def test_rows_equal_one_evaluation_per_threshold(self, inputs, frame_count):
        detections, truth, thresholds = inputs
        assert threshold_sweep(detections, truth, thresholds, frame_count=frame_count) == [
            evaluate_at(detections, truth, t, frame_count=frame_count) for t in thresholds
        ]

    @pytest.mark.parametrize(
        "scores, thresholds, evaluated",
        [
            ([1.0] * 6, NINE_THRESHOLDS, [0.1]),
            ([0.35, 0.35, 0.8], NINE_THRESHOLDS, [0.1, 0.4, 0.9]),
            ([0.5], [0.4, 0.5, 0.6], [0.4, 0.6]),
            ([], NINE_THRESHOLDS, [0.1]),
        ],
        ids=["all-one", "two-steps", "threshold-equal-to-a-score", "no-detections"],
    )
    def test_one_evaluation_per_distinct_kept_set(self, monkeypatch, scores, thresholds, evaluated):
        calls = []
        original = evaluation.evaluate_at

        def spy(detections, ground_truth, threshold, *args):
            calls.append(threshold)
            return original(detections, ground_truth, threshold, *args)

        monkeypatch.setattr(evaluation, "evaluate_at", spy)
        detections = [det(f, 0, 0, 10, 10, score) for f, score in enumerate(scores)]
        truth = [gt(f, 0, 0, 10, 10) for f in range(len(scores))]
        reports = threshold_sweep(detections, truth, thresholds)
        assert calls == evaluated
        assert [r.threshold for r in reports] == list(thresholds)
