import csv
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cctrack.cli import main, parse_threshold_range
from cctrack.tracker import CentroidCorrelationTracker
from cctrack.io import read_detections, read_ground_truth, write_frames, write_pgm

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def synth(tmp_path, capsys, payload, out_name="data"):
    config = write_config(tmp_path, f"{out_name}.json", payload)
    out_dir = tmp_path / out_name
    code = main(["synth", "--config", config, "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    return out_dir


class TestThresholdRange:
    def test_canonical_nine(self):
        assert parse_threshold_range("0.1:0.9:0.1") == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        ]

    def test_single_value_range(self):
        assert parse_threshold_range("0.5:0.5:0.1") == [0.5]

    def test_endpoint_tolerance(self):
        assert parse_threshold_range("0.2:0.8:0.3") == [0.2, 0.5, 0.8]

    def test_rejects_malformed(self):
        for bad in ("0.5", "a:b:c", "0.1:0.9:0", "0.9:0.1:0.1"):
            with pytest.raises(ValueError):
                parse_threshold_range(bad)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["priorboxes", "--bogus"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["eval", "--detections", "x.jsonl"]) == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text("frame,object_id,x1,y1,x2,y2\n")
        assert main([
            "eval", "--detections", str(tmp_path / "nope.jsonl"),
            "--groundtruth", str(gt), "--threshold", "0.5",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_schema_violation_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 7, "class": 0}\n')
        gt = tmp_path / "gt.csv"
        gt.write_text("frame,object_id,x1,y1,x2,y2\n")
        code = main([
            "eval", "--detections", str(bad), "--groundtruth", str(gt), "--threshold", "0.5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "score" in err and err.count("\n") == 1  # single-line diagnostic

    @pytest.mark.parametrize(
        "line",
        [b"[" * 100_000, b'{"frame": 0, "bbox": [0, 0, 5, ' + b"9" * 400 + b'], "score": 1, "class": 0}'],
    )
    def test_unparseable_numbers_and_nesting_are_data_errors(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(line + b"\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("frame,object_id,x1,y1,x2,y2\n")
        code = main([
            "eval", "--detections", str(bad), "--groundtruth", str(gt), "--threshold", "0.5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:1:" in err and err.count("\n") == 1

    def test_convcheck_passes_with_exit_zero(self, capsys):
        assert main(["convcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_convcheck_failure_exits_three(self, capsys, monkeypatch):
        from cctrack import cli, selfcheck

        def broken(seed=0):
            return [selfcheck.CheckResult("planted failure", False, "for the exit-code test")]

        monkeypatch.setattr(cli.selfcheck, "run_all", broken)
        assert main(["convcheck"]) == 3
        assert "FAIL planted failure" in capsys.readouterr().out

    def test_mistyped_tracker_config_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "trk.json"
        bad.write_text(json.dumps({"max_distance": "wide"}))
        dets = tmp_path / "d.jsonl"
        dets.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        code = main([
            "track", "--detections", str(dets), "--config", str(bad),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("detection_interval", 2.5),
            ("search_margin", 2.5),
            ("max_disappearance", "3"),
            ("confidence_threshold", None),
        ],
    )
    def test_tracker_config_of_the_wrong_type_names_file_and_key(
        self, tmp_path, capsys, key, value
    ):
        config = write_config(tmp_path, "trk.json", {key: value})
        dets = tmp_path / "d.jsonl"
        dets.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        code = main([
            "track", "--detections", str(dets), "--config", config,
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{config}: {key} must be" in err and err.count("\n") == 1


class TestPriorboxes:
    def test_table_ends_with_total(self, capsys):
        assert main(["priorboxes"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "total 8732"
        body = "\n".join(lines)
        for count in ("5776", "2166", "600", "150", "36"):
            assert count in body

    def test_layer_filter(self, capsys):
        assert main(["priorboxes", "--layer", "Conv9_2"]) == 0
        out = capsys.readouterr().out
        assert "Conv9_2" in out and "150" in out
        assert "Conv4_3" not in out

    def test_unknown_layer_is_data_error(self, capsys):
        assert main(["priorboxes", "--layer", "Conv99"]) == 2


class TestSynth:
    def test_writes_the_three_outputs(self, tmp_path, capsys):
        out_dir = synth(tmp_path, capsys, {
            "preset": "noiseless", "num_people": 1, "frame_count": 5,
            "image_size": [64, 48], "person_box_size": 12, "rng_seed": 3,
        })
        assert (out_dir / "detections.jsonl").is_file()
        assert (out_dir / "groundtruth.csv").is_file()
        frames = sorted((out_dir / "frames").glob("*.pgm"))
        assert len(frames) == 5
        assert frames[0].name == "frame_000000.pgm"

    def test_render_frames_false_skips_pixels(self, tmp_path, capsys):
        out_dir = synth(tmp_path, capsys, {
            "preset": "small", "frame_count": 4, "rng_seed": 1, "render_frames": False,
        })
        assert not (out_dir / "frames").exists()

    @pytest.mark.parametrize("render", [True, False], ids=["fewer-frames", "no-frames"])
    def test_a_second_run_leaves_only_its_own_frames(self, tmp_path, capsys, render):
        payload = {"preset": "small", "num_people": 1, "image_size": [64, 48],
                   "person_box_size": 12}
        out_dir = synth(tmp_path, capsys, {**payload, "frame_count": 5})
        (out_dir / "frames" / "notes.txt").write_text("kept")
        synth(tmp_path, capsys, {**payload, "frame_count": 3, "render_frames": render})
        names = sorted(p.name for p in (out_dir / "frames").iterdir())
        expected = [f"frame_00000{i}.pgm" for i in range(3)] if render else []
        assert names == expected + ["notes.txt"]
        if render:
            config = write_config(tmp_path, "trk.json", {})
            assert main([
                "track", "--detections", str(out_dir / "detections.jsonl"),
                "--frames", str(out_dir / "frames"), "--config", config,
                "--out", str(tmp_path / "t.csv"),
            ]) == 0
            assert capsys.readouterr().out.startswith("track: 3 frames,")

    def test_round_trip_reingests_without_change(self, tmp_path, capsys):
        out_dir = synth(tmp_path, capsys, {
            "preset": "medium", "frame_count": 20, "rng_seed": 5, "render_frames": False,
        })
        detections = read_detections(out_dir / "detections.jsonl")
        truth = read_ground_truth(out_dir / "groundtruth.csv")
        assert len(truth) == 8 * 20
        assert detections  # medium preset always detects something in 20 frames
        # writing what was read reproduces the files byte for byte
        from cctrack.io import write_detections, write_ground_truth

        write_detections(tmp_path / "again.jsonl", detections)
        write_ground_truth(tmp_path / "again.csv", truth)
        assert (tmp_path / "again.jsonl").read_bytes() == (out_dir / "detections.jsonl").read_bytes()
        assert (tmp_path / "again.csv").read_bytes() == (out_dir / "groundtruth.csv").read_bytes()

    def test_same_seed_byte_identical_different_seed_not(self, tmp_path, capsys):
        payload = {"preset": "small", "frame_count": 15, "rng_seed": 9, "render_frames": False}
        a = synth(tmp_path, capsys, payload, "a")
        b = synth(tmp_path, capsys, payload, "b")
        assert (a / "detections.jsonl").read_bytes() == (b / "detections.jsonl").read_bytes()
        assert (a / "groundtruth.csv").read_bytes() == (b / "groundtruth.csv").read_bytes()
        config = write_config(tmp_path, "c.json", payload)
        out_c = tmp_path / "c"
        assert main(["synth", "--config", config, "--out-dir", str(out_c), "--seed", "10"]) == 0
        capsys.readouterr()
        assert (a / "detections.jsonl").read_bytes() != (out_c / "detections.jsonl").read_bytes()

    def test_bad_config_key_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.json", {"nonsense": True})
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("num_people", 2.5), ("frame_count", "5"), ("image_size", [100.5, 80]), ("rng_seed", 1.5)],
    )
    def test_scenario_config_of_the_wrong_type_names_file_and_key(
        self, tmp_path, capsys, key, value
    ):
        config = write_config(tmp_path, "bad.json", {"frame_count": 3, key: value})
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{config}: {key}" in err and "must be an integer" in err

    @pytest.mark.parametrize(
        "key, value, complaint",
        [
            ("confidence_mean", None, "must be a number"),
            ("box_jitter", float("inf"), "must be finite"),
            ("crowd_radius", float("nan"), "must be finite"),
            ("confidence_std", "0.1", "must be a number"),
            ("speed_range", [1.0], "must be a pair"),
        ],
    )
    def test_scenario_float_field_of_the_wrong_type_names_file_and_key(
        self, tmp_path, capsys, key, value, complaint
    ):
        config = write_config(tmp_path, "bad.json", {"frame_count": 3, key: value})
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{config}: {key}" in err and complaint in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("clutter_confidence_mean", 0.3),
            ("clutter_confidence_std", 0.1),
            ("clutter_size_range", [0.6, 1.4]),
        ],
    )
    def test_clutter_settings_are_not_config_keys(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, "bad.json", {"frame_count": 3, key: value})
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2
        assert f"{config}: unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", None, 0])
    def test_render_frames_must_be_a_boolean(self, tmp_path, capsys, value):
        config = write_config(tmp_path, "bad.json", {"frame_count": 3, "render_frames": value})
        out_dir = tmp_path / "x"
        assert main(["synth", "--config", config, "--out-dir", str(out_dir)]) == 2
        assert f"{config}: render_frames must be true or false" in capsys.readouterr().err
        assert not out_dir.exists()


class TestEvalAndSweep:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        return synth(tmp_path, capsys, {
            "preset": "small", "frame_count": 40, "rng_seed": 77, "render_frames": False,
        })

    def test_eval_emits_json_report(self, dataset, capsys):
        code = main([
            "eval", "--detections", str(dataset / "detections.jsonl"),
            "--groundtruth", str(dataset / "groundtruth.csv"), "--threshold", "0.5",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold"] == 0.5
        assert report["n"] == report["tp"] + report["fp"] + report["fn"] + report["tn"]
        assert 0.0 <= report["precision"] <= 1.0

    def test_sweep_csv_has_nine_rows(self, dataset, capsys):
        code = main([
            "sweep", "--detections", str(dataset / "detections.jsonl"),
            "--groundtruth", str(dataset / "groundtruth.csv"),
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 9
        assert [float(r["threshold"]) for r in rows] == [i / 10 for i in range(1, 10)]

    def test_eval_equals_the_matching_sweep_row_bit_for_bit(self, dataset, capsys):
        main([
            "sweep", "--detections", str(dataset / "detections.jsonl"),
            "--groundtruth", str(dataset / "groundtruth.csv"),
        ])
        sweep_rows = {
            row["threshold"]: row
            for row in csv.DictReader(capsys.readouterr().out.splitlines())
        }
        for threshold in ("0.3", "0.7", "0.9"):
            main([
                "eval", "--detections", str(dataset / "detections.jsonl"),
                "--groundtruth", str(dataset / "groundtruth.csv"),
                "--threshold", threshold,
            ])
            report = json.loads(capsys.readouterr().out)
            row = sweep_rows[threshold]
            for column in ("tp", "fp", "fn", "tn"):
                assert report[column] == int(row[column])
            for column in ("precision", "recall", "accuracy"):
                # same float bits, hence the same shortest repr
                assert repr(report[column]) == row[column]

    def test_sweep_out_file(self, dataset, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--detections", str(dataset / "detections.jsonl"),
            "--groundtruth", str(dataset / "groundtruth.csv"), "--out", str(target),
        ])
        assert code == 0
        assert target.read_text().startswith("threshold,tp,fp,fn,tn,")

    def test_sweep_time_does_not_grow_with_the_largest_frame_index(self, tmp_path, capsys):
        detections = tmp_path / "far.jsonl"
        detections.write_text(
            json.dumps({"frame": 10**12, "bbox": [0, 0, 10, 10], "score": 0.95, "class": 0}) + "\n"
        )
        truth = tmp_path / "gt.csv"
        truth.write_text("frame,object_id,x1,y1,x2,y2\n")
        start = time.perf_counter()
        code = main(["sweep", "--detections", str(detections), "--groundtruth", str(truth)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [int(row["tn"]) for row in rows] == [10**12] * 9
        assert [int(row["fp"]) for row in rows] == [1] * 9

    def test_bad_threshold_range_is_data_error(self, dataset, capsys):
        code = main([
            "sweep", "--detections", str(dataset / "detections.jsonl"),
            "--groundtruth", str(dataset / "groundtruth.csv"),
            "--thresholds", "0.0:0.9:0.1",
        ])
        assert code == 2  # 0.0 violates the open-interval rule


class TestTrack:
    def test_tracks_noiseless_single_walker(self, tmp_path, capsys):
        out_dir = synth(tmp_path, capsys, {
            "preset": "noiseless", "num_people": 2, "frame_count": 30,
            "image_size": [200, 150], "person_box_size": 20, "rng_seed": 4,
            "render_frames": False,
        })
        config = write_config(tmp_path, "trk.json", {"max_distance": 40.0})
        traj = tmp_path / "traj.csv"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "track", "--detections", str(out_dir / "detections.jsonl"),
            "--config", config, "--out", str(traj), "--trace", str(trace),
        ])
        assert code == 0
        capsys.readouterr()
        rows = list(csv.DictReader(traj.read_text().splitlines()))
        assert {row["track_id"] for row in rows} == {"0", "1"}
        assert len(rows) == 2 * 30
        updates = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(updates) == 30
        assert updates[0]["registered"] == [0, 1]
        assert all(len(u["matched"]) == 2 for u in updates[1:])

    def test_track_with_frames_and_interval(self, tmp_path, capsys):
        out_dir = synth(tmp_path, capsys, {
            "preset": "noiseless", "num_people": 1, "frame_count": 24,
            "image_size": [160, 120], "person_box_size": 24,
            "speed_range": [2.0, 3.0], "rng_seed": 6,
        })
        config = write_config(
            tmp_path, "trk.json",
            {"max_distance": 40.0, "detection_interval": 4, "search_margin": 8},
        )
        traj = tmp_path / "traj.csv"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "track", "--detections", str(out_dir / "detections.jsonl"),
            "--frames", str(out_dir / "frames"),
            "--config", config, "--out", str(traj), "--trace", str(trace),
        ])
        assert code == 0
        capsys.readouterr()
        updates = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(updates) == 24
        detection_frames = [u for u in updates if u["frame"] % 4 == 0]
        correlation_frames = [u for u in updates if u["frame"] % 4 != 0]
        assert all(u["correlated"] == [] for u in detection_frames)
        assert all(u["correlated"] == [0] for u in correlation_frames)
        # a single identity all the way through
        rows = list(csv.DictReader(traj.read_text().splitlines()))
        assert {row["track_id"] for row in rows} == {"0"}
        assert len(rows) == 24

    def test_track_determinism(self, tmp_path, capsys):
        out_dir = synth(tmp_path, capsys, {
            "preset": "medium", "frame_count": 25, "rng_seed": 12, "render_frames": False,
        })
        config = write_config(tmp_path, "trk.json", {})
        outs = []
        for name in ("t1.csv", "t2.csv"):
            target = tmp_path / name
            assert main([
                "track", "--detections", str(out_dir / "detections.jsonl"),
                "--config", config, "--out", str(target),
            ]) == 0
            capsys.readouterr()
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_one_live_tracks_copy_per_run(self, tmp_path, capsys, monkeypatch):
        # Trajectory rows come from FrameUpdate.positions; only the summary
        # line reads live_tracks(), so its history copy is not per frame.
        out_dir = synth(tmp_path, capsys, {
            "preset": "small", "frame_count": 40, "rng_seed": 8, "render_frames": False,
        })
        calls = []
        original = CentroidCorrelationTracker.live_tracks

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(CentroidCorrelationTracker, "live_tracks", counting)
        config = write_config(tmp_path, "trk.json", {})
        traj = tmp_path / "traj.csv"
        assert main([
            "track", "--detections", str(out_dir / "detections.jsonl"),
            "--config", config, "--out", str(traj),
        ]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        assert len(traj.read_text().splitlines()) > 40

    def test_empty_frames_directory_is_data_error(self, tmp_path, capsys):
        dets = tmp_path / "d.jsonl"
        dets.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        (tmp_path / "empty").mkdir()
        config = write_config(tmp_path, "trk.json", {})
        code = main([
            "track", "--detections", str(dets), "--frames", str(tmp_path / "empty"),
            "--config", config, "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        assert "empty: no *.pgm frames" in capsys.readouterr().err

    def test_frame_of_another_shape_mid_stream_is_data_error(self, tmp_path, capsys):
        dets = tmp_path / "d.jsonl"
        dets.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        paths = write_frames(tmp_path / "frames", [np.zeros((12, 16), dtype=np.uint8)] * 3)
        write_pgm(paths[2], np.zeros((5, 6), dtype=np.uint8))
        config = write_config(tmp_path, "trk.json", {})
        out = tmp_path / "t.csv"
        code = main([
            "track", "--detections", str(dets), "--frames", str(tmp_path / "frames"),
            "--config", config, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "frame_000002.pgm: frame is 6x5, but frame_000000.pgm is 16x12" in err
        assert not out.exists()

    @pytest.mark.parametrize("frames", ["missing", "no-pgm"])
    def test_bad_frames_directory_fails_before_the_trace_is_opened(
        self, tmp_path, capsys, frames
    ):
        dets = tmp_path / "d.jsonl"
        dets.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        if frames == "no-pgm":
            (tmp_path / frames).mkdir()
        config = write_config(tmp_path, "trk.json", {})
        trace = tmp_path / "trace.jsonl"
        code = main([
            "track", "--detections", str(dets), "--frames", str(tmp_path / frames),
            "--config", config, "--out", str(tmp_path / "t.csv"), "--trace", str(trace),
        ])
        assert code == 2
        complaint = "not a directory" if frames == "missing" else "no *.pgm frames"
        assert f"{frames}: {complaint}" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("interval", [1, 2, 3, 5])
    def test_idle_stretches_are_skipped_only_without_a_trace(self, tmp_path, capsys, interval):
        # With no live track and no frame left, track jumps ahead by whole
        # detection intervals; with --trace it visits every index. The
        # trajectories and the summary line must not tell the two apart.
        rng = np.random.default_rng(interval)
        config = write_config(
            tmp_path, "trk.json", {"detection_interval": interval, "max_disappearance": 2}
        )
        for case in range(8):
            frames = np.cumsum(rng.integers(1, 12, size=int(rng.integers(1, 12))))
            dets = tmp_path / f"d{case}.jsonl"
            dets.write_text("".join(
                json.dumps({"frame": int(f), "bbox": [x, 10.0, x + 8.0, 18.0],
                            "score": 0.9, "class": 0}) + "\n"
                for f in frames for x in rng.uniform(0, 40, size=int(rng.integers(1, 3)))
            ))
            results = []
            for trace in ([], ["--trace", str(tmp_path / "trace.jsonl")]):
                out = tmp_path / "t.csv"
                assert main([
                    "track", "--detections", str(dets), "--config", config, "--out", str(out),
                ] + trace) == 0
                results.append((out.read_bytes(), capsys.readouterr().out))
            assert results[0] == results[1]
            lines = (tmp_path / "trace.jsonl").read_text().splitlines()
            assert len(lines) == frames[-1] + 1

    def test_far_frame_index_does_not_walk_every_index(self, tmp_path):
        dets = tmp_path / "d.jsonl"
        dets.write_text(
            '{"frame": 0, "bbox": [10, 10, 20, 20], "score": 0.9, "class": 0}\n'
            '{"frame": 1000000000000, "bbox": [10, 10, 20, 20], "score": 0.9, "class": 0}\n'
        )
        config = write_config(tmp_path, "trk.json", {})
        out = tmp_path / "t.csv"
        # A subprocess, so that a run that walks every index is stopped.
        done = subprocess.run(
            [sys.executable, "-m", "cctrack.cli", "track", "--detections", str(dets),
             "--config", config, "--out", str(out)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("track: 1000000000001 frames, 2 identities registered")
        assert out.read_text().splitlines()[1:] == ["0,0,15.0,15.0", "1,1000000000000,15.0,15.0"]

    def test_empty_detections_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        config = write_config(tmp_path, "trk.json", {})
        code = main([
            "track", "--detections", str(empty), "--config", config,
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2


class TestBadNumbersAreDataErrors:
    """Each bad number exits 2 with one line naming the file and key, or the flag."""

    @pytest.fixture
    def files(self, tmp_path):
        dets = tmp_path / "d.jsonl"
        dets.write_text('{"frame": 0, "bbox": [0, 0, 5, 5], "score": 0.5, "class": 0}\n')
        gt = tmp_path / "gt.csv"
        gt.write_text("frame,object_id,x1,y1,x2,y2\n0,0,0,0,5,5\n")
        return str(dets), str(gt)

    @staticmethod
    def one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "payload, complaint",
        [
            ({"box_jitter": 10**400}, "box_jitter is out of the float range"),
            ({"speed_range": [1, 10**400]}, "speed_range entry is out of the float range"),
            ({"rng_seed": -1}, "rng_seed must be non-negative, got -1"),
            (
                {"image_size": [10**400, 100], "render_frames": False},
                "image_size entry is out of the float range",
            ),
        ],
        ids=["box_jitter", "speed_range", "rng_seed", "image_size"],
    )
    def test_synth_config(self, tmp_path, capsys, payload, complaint):
        config = write_config(tmp_path, "bad.json", {"frame_count": 3, **payload})
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2
        assert f"{config}: {complaint}" in self.one_line_error(capsys)

    def test_deeply_nested_config(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "x")]) == 2
        assert f"{config}: malformed JSON: nested too deeply" in self.one_line_error(capsys)

    def test_negative_seed_flag(self, tmp_path, capsys):
        config = write_config(tmp_path, "ok.json", {"frame_count": 3})
        code = main(["synth", "--config", config, "--out-dir", str(tmp_path / "x"), "--seed", "-3"])
        assert code == 2
        assert "--seed: rng_seed must be non-negative, got -3" in self.one_line_error(capsys)

    def test_frames_that_do_not_fit_in_memory(self, tmp_path, capsys, monkeypatch):
        from cctrack import cli

        def out_of_memory(scenario):
            raise MemoryError()

        monkeypatch.setattr(cli.scenario, "render_frames", out_of_memory)
        config = write_config(tmp_path, "big.json", {
            "image_size": [100000, 100000], "frame_count": 1, "num_people": 0,
        })
        earlier = write_frames(tmp_path / "x" / "frames", [np.zeros((4, 4), dtype=np.uint8)] * 2)
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2
        assert f"{config}: image_size 100000x100000" in self.one_line_error(capsys)
        assert not (tmp_path / "x" / "detections.jsonl").exists()
        assert not (tmp_path / "x" / "groundtruth.csv").exists()
        assert all(path.is_file() for path in earlier)

    @pytest.mark.parametrize("frames_that_fit", [0, 1], ids=["first-frame", "later-frame"])
    def test_frame_that_does_not_fit_in_memory_mid_stream(
        self, tmp_path, capsys, monkeypatch, frames_that_fit
    ):
        # The call to render_frames succeeds; a frame it yields fails.
        from cctrack import cli

        render = cli.scenario.render_frames

        def out_of_memory_after(scenario):
            yield from itertools.islice(render(scenario), frames_that_fit)
            raise MemoryError()

        monkeypatch.setattr(cli.scenario, "render_frames", out_of_memory_after)
        config = write_config(tmp_path, "big.json", {"frame_count": 3, "num_people": 0})
        assert main(["synth", "--config", config, "--out-dir", str(tmp_path / "x")]) == 2
        assert f"{config}: image_size 640x480 frames do not fit" in self.one_line_error(capsys)
        if frames_that_fit == 0:
            assert not (tmp_path / "x" / "detections.jsonl").exists()
            assert not (tmp_path / "x" / "groundtruth.csv").exists()

    @pytest.mark.parametrize(
        "text, complaint",
        [(json.dumps({"max_distance": 10**400}), "max_distance is out of the float range"),
         ('{"max_distance": Infinity}', "max_distance must be finite, got inf")],
        ids=["past-float-range", "infinity"],
    )
    def test_tracker_config(self, tmp_path, capsys, files, text, complaint):
        config = tmp_path / "trk.json"
        config.write_text(text)
        code = main([
            "track", "--detections", files[0], "--config", str(config),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        assert f"{config}: {complaint}" in self.one_line_error(capsys)

    @pytest.mark.parametrize(
        "thresholds, complaint",
        [
            ("0.1:inf:0.1", "threshold range end must be finite, got inf"),
            ("0.1:0.9:1e-300", "threshold step must be at least 1e-9"),
        ],
    )
    def test_sweep_thresholds_flag(self, capsys, files, thresholds, complaint):
        start = time.perf_counter()
        code = main([
            "sweep", "--detections", files[0], "--groundtruth", files[1],
            "--thresholds", thresholds,
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"--thresholds: {complaint}" in self.one_line_error(capsys)

    @pytest.mark.parametrize(
        "iou, complaint",
        [("nan", "--iou must be finite, got nan"), ("2", "--iou must be in [0, 1], got 2.0")],
    )
    def test_eval_iou_flag(self, capsys, files, iou, complaint):
        code = main([
            "eval", "--detections", files[0], "--groundtruth", files[1],
            "--threshold", "0.5", "--iou", iou,
        ])
        assert code == 2
        assert complaint in self.one_line_error(capsys)
