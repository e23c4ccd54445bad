"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import csv
import json
import time

import numpy as np

from cctrack.cli import main
from cctrack.evaluation import NINE_THRESHOLDS, evaluate_at, threshold_sweep
from cctrack.geometry import BoundingBox, Detection, Point, centroid
from cctrack.correlation import correlate_track
from cctrack.io import (
    read_detections,
    read_ground_truth,
    write_detections,
    write_ground_truth,
)
from cctrack.scenario import generate, preset_config
from cctrack.selfcheck import check_mac_ratio_exact, check_separable_equivalence
from cctrack.tracker import CentroidCorrelationTracker, TrackerConfig, associate

from oracles import associate_reference, best_gated_matching


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.started = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.started

    def check(self):
        assert self.elapsed < self.seconds, f"runtime {self.elapsed:.1f}s over {self.seconds}s budget"


def _report(number, label, budget):
    budget.check()
    print(f"PASS criterion {number}: {label} ({budget.elapsed:.2f}s)")


def test_criterion_1_prior_box_arithmetic(capsys):
    budget = _Budget(1.0)
    assert main(["priorboxes"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total 8732"
    counts = [int(line.split()[-1]) for line in lines[1:-1]]
    assert counts == [5776, 2166, 600, 150, 36, 4]
    with capsys.disabled():
        _report(1, "per-layer prior counts 5776/2166/600/150/36/4, total 8732", budget)


def test_criterion_2_kernel_equivalence(capsys):
    budget = _Budget(10.0)
    for result in (
        check_separable_equivalence(np.random.default_rng(20240901), trials=100),
        check_mac_ratio_exact(),
    ):
        assert result.passed, f"{result.name}: {result.detail}"
    with capsys.disabled():
        _report(2, "separable==factorized full within 1e-9 on 100 instances; "
                   "MAC ratio exactly 1/64 + 1/9", budget)


def _run_lifecycle_sequence(rng):
    """One randomized tracker run with every lifecycle invariant asserted."""
    config = TrackerConfig(
        max_disappearance=int(rng.integers(1, 4)),
        max_distance=float(rng.uniform(15, 50)),
        confidence_threshold=0.5,
    )
    tracker = CentroidCorrelationTracker(config)
    registered_ever = []

    # anchor object: always detected, moves well under max_distance per frame
    anchor = np.array([200.0, 200.0])
    anchor_step = rng.uniform(-config.max_distance / 4, config.max_distance / 4, size=2)
    anchor_id = None

    n_frames = int(rng.integers(6, 18))
    for frame in range(n_frames):
        entering = {t.id: t.centroid for t in tracker.live_tracks()}

        detections = []
        anchor += anchor_step
        detections.append(Detection(
            frame,
            BoundingBox(anchor[0] - 6, anchor[1] - 6, anchor[0] + 6, anchor[1] + 6),
            0.95,
        ))
        # clutter kept far from the anchor so it can never contest the match
        for _ in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(400, 900, 2)
            detections.append(Detection(
                frame, BoundingBox(x, y, x + 12, y + 12), float(rng.uniform(0, 1))
            ))

        update = tracker.update(frame, detections)
        kept = sum(1 for d in detections if d.confidence >= config.confidence_threshold)

        # conservation over detections and over entering tracks
        assert len(update.matched) + len(update.registered) == kept
        assert (
            len(update.matched) + len(update.disappeared_incremented) + len(update.deregistered)
            == len(entering)
        )
        # event lists pairwise disjoint
        ids = ([tid for tid, _ in update.matched] + list(update.registered)
               + list(update.disappeared_incremented) + list(update.deregistered))
        assert len(ids) == len(set(ids))
        # gating on every match
        for tid, matched_det in update.matched:
            before = entering[tid]
            after = centroid(matched_det.bbox)
            assert np.hypot(before.x - after.x, before.y - after.y) <= config.max_distance + 1e-9

        registered_ever.extend(update.registered)
        for track in tracker.live_tracks():
            assert track.disappeared <= config.max_disappearance

        # identity preservation for the anchor
        anchor_point = Point(float(anchor[0]), float(anchor[1]))
        holder = min(
            tracker.live_tracks(),
            key=lambda t: np.hypot(t.centroid.x - anchor_point.x, t.centroid.y - anchor_point.y),
        )
        if anchor_id is None:
            anchor_id = holder.id
        assert holder.id == anchor_id, "anchor object switched identity"

    # no id ever reused
    assert len(registered_ever) == len(set(registered_ever))

    # deregistration exactness on the anchor track
    live_ids = {t.id for t in tracker.live_tracks()}
    assert anchor_id in live_ids
    frame = n_frames
    for _ in range(config.max_disappearance):
        tracker.update(frame, [])
        frame += 1
    assert anchor_id in {t.id for t in tracker.live_tracks()}, "deregistered too early"
    final = tracker.update(frame, [])
    assert anchor_id in final.deregistered, "not deregistered exactly one frame past the bound"


def test_criterion_3_tracker_lifecycle_suite(capsys):
    budget = _Budget(60.0)
    rng = np.random.default_rng(555)
    for _ in range(1000):
        _run_lifecycle_sequence(rng)

    # greedy association versus the exhaustive oracle on <=5x5 instances
    for _ in range(1000):
        n_tracks = int(rng.integers(0, 6))
        n_points = int(rng.integers(0, 6))
        gate = float(rng.uniform(5, 45))
        existing = [(tid, Point(*rng.uniform(0, 100, 2))) for tid in range(n_tracks)]
        incoming = [(i, Point(*rng.uniform(0, 100, 2))) for i in range(n_points)]
        result = associate(existing, incoming, gate)
        plain_e = [(tid, (p.x, p.y)) for tid, p in existing]
        plain_i = [(i, (p.x, p.y)) for i, p in incoming]
        assert result == associate_reference(existing, incoming, gate)
        oracle_pairs, best_size, _ = best_gated_matching(plain_e, plain_i, gate)
        assert len(result.matches) <= best_size
        matched_t = [t for t, _ in result.matches]
        matched_i = [i for _, i in result.matches]
        assert len(set(matched_t)) == len(matched_t) and len(set(matched_i)) == len(matched_i)
        points_e, points_i = dict(plain_e), dict(plain_i)
        for tid, i in result.matches:
            assert np.hypot(points_e[tid][0] - points_i[i][0],
                            points_e[tid][1] - points_i[i][1]) <= gate + 1e-9
        for tid in result.unmatched_tracks:
            for i in result.unmatched_incoming:
                assert np.hypot(points_e[tid][0] - points_i[i][0],
                                points_e[tid][1] - points_i[i][1]) > gate
        if set(result.matches) == set(oracle_pairs):
            assert len(result.matches) == best_size
    with capsys.disabled():
        _report(3, "lifecycle invariants on 1000 sequences; greedy vs oracle on 1000 "
                   "instances <=5x5", budget)


def test_criterion_4_noiseless_end_to_end(tmp_path, capsys):
    budget = _Budget(30.0)
    config = tmp_path / "noiseless.json"
    config.write_text(json.dumps({
        "preset": "noiseless", "rng_seed": 7, "render_frames": False,
    }))
    out_dir = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main([
        "sweep", "--detections", str(out_dir / "detections.jsonl"),
        "--groundtruth", str(out_dir / "groundtruth.csv"),
    ]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 9
    for row in rows:
        assert (row["precision"], row["recall"], row["accuracy"]) == ("1.0", "1.0", "1.0")
    with capsys.disabled():
        _report(4, "noiseless sweep is all-unity at all nine thresholds", budget)


def test_criterion_5_degradation_trend(capsys):
    budget = _Budget(60.0)
    recalls = {}
    reports = {}
    for name in ("small", "medium", "large"):
        cfg = preset_config(name, rng_seed=42)
        scn = generate(cfg)
        report = evaluate_at(scn.detections, scn.ground_truth, 0.9,
                             frame_count=cfg.frame_count)
        recalls[name] = report.recall
        reports[name] = report
    assert recalls["small"] >= recalls["medium"] >= recalls["large"]
    large = reports["large"]
    assert large.counts.tp == 0
    assert (large.precision, large.recall, large.accuracy) == (0.0, 0.0, 0.0)
    with capsys.disabled():
        _report(5, "recall@0.9 ordering "
                   f"{recalls['small']:.3f} >= {recalls['medium']:.3f} >= {recalls['large']:.3f}; "
                   "large crowd collapses to zero", budget)


def test_criterion_6_threshold_monotonicity(capsys):
    budget = _Budget(60.0)
    presets = ("small", "medium", "large", "noiseless")
    checked = 0
    for seed in range(20):
        cfg = preset_config(presets[seed % len(presets)], rng_seed=seed, frame_count=100)
        scn = generate(cfg)
        reports = threshold_sweep(scn.detections, scn.ground_truth, NINE_THRESHOLDS,
                                  frame_count=cfg.frame_count)
        tps = [r.counts.tp for r in reports]
        fps = [r.counts.fp for r in reports]
        assert all(a >= b for a, b in zip(tps, tps[1:])), f"TP not monotone at seed {seed}"
        assert all(a >= b for a, b in zip(fps, fps[1:])), f"FP not monotone at seed {seed}"
        checked += 1
    assert checked >= 20
    with capsys.disabled():
        _report(6, "TP and FP non-increasing across the nine thresholds on 20 seeds", budget)


def test_criterion_7_correlation_tracker_exact_offsets(capsys):
    budget = _Budget(60.0)
    rng = np.random.default_rng(901)
    trials = 0
    while trials < 100:
        margin = int(rng.integers(3, 9))
        h, w = (int(v) for v in rng.integers(50, 90, 2))
        prev = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        dx = int(rng.integers(-margin, margin + 1))
        dy = int(rng.integers(-margin, margin + 1))
        cur = np.zeros_like(prev)
        src_x = slice(max(0, -dx), min(w, w - dx))
        src_y = slice(max(0, -dy), min(h, h - dy))
        dst_x = slice(max(0, dx), min(w, w + dx))
        dst_y = slice(max(0, dy), min(h, h + dy))
        cur[dst_y, dst_x] = prev[src_y, src_x]
        x1 = int(rng.integers(margin + 1, w - 20 - margin))
        y1 = int(rng.integers(margin + 1, h - 20 - margin))
        bbox = BoundingBox(x1, y1, x1 + 16, y1 + 16)
        result = correlate_track(prev, cur, bbox, search_margin=margin)
        assert (result.dx, result.dy) == (dx, dy), (
            f"offset ({dx}, {dy}) recovered as ({result.dx}, {result.dy})"
        )
        trials += 1
    with capsys.disabled():
        _report(7, "NCC recovers 100 integer translations exactly within the margin", budget)


def test_criterion_8_determinism_and_round_trip(tmp_path, capsys):
    budget = _Budget(60.0)
    payload = {
        "preset": "small", "rng_seed": 33, "frame_count": 60,
        "image_size": [160, 120], "person_box_size": 20,
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out_dir in dirs:
        assert main(["synth", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()

    # identical seeds: byte-identical outputs, frames included
    a, b = dirs
    assert (a / "detections.jsonl").read_bytes() == (b / "detections.jsonl").read_bytes()
    assert (a / "groundtruth.csv").read_bytes() == (b / "groundtruth.csv").read_bytes()
    frames_a = sorted((a / "frames").glob("*.pgm"))
    frames_b = sorted((b / "frames").glob("*.pgm"))
    assert len(frames_a) == 60 and len(frames_a) == len(frames_b)
    for fa, fb in zip(frames_a, frames_b):
        assert fa.read_bytes() == fb.read_bytes()

    # lossless re-ingestion: parse then re-serialize reproduces the bytes
    detections = read_detections(a / "detections.jsonl")
    truth = read_ground_truth(a / "groundtruth.csv")
    write_detections(tmp_path / "re.jsonl", detections)
    write_ground_truth(tmp_path / "re.csv", truth)
    assert (tmp_path / "re.jsonl").read_bytes() == (a / "detections.jsonl").read_bytes()
    assert (tmp_path / "re.csv").read_bytes() == (a / "groundtruth.csv").read_bytes()

    # eval output equals the sweep row bit for bit
    assert main([
        "sweep", "--detections", str(a / "detections.jsonl"),
        "--groundtruth", str(a / "groundtruth.csv"),
    ]) == 0
    sweep_rows = {row["threshold"]: row
                  for row in csv.DictReader(capsys.readouterr().out.splitlines())}
    for threshold in ("0.1", "0.5", "0.9"):
        assert main([
            "eval", "--detections", str(a / "detections.jsonl"),
            "--groundtruth", str(a / "groundtruth.csv"), "--threshold", threshold,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        row = sweep_rows[threshold]
        assert repr(report["threshold"]) == row["threshold"]
        for column in ("tp", "fp", "fn", "tn"):
            assert report[column] == int(row[column])
        for column in ("precision", "recall", "accuracy"):
            assert repr(report[column]) == row[column]  # same float bits
    with capsys.disabled():
        _report(8, "seeded synth byte-identical, lossless re-ingestion, eval==sweep row", budget)
