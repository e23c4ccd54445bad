"""Frames stream through synth and track, and track frees each frame's detections once tracked."""

import json
import tracemalloc
from collections.abc import Iterator

import pytest

from cctrack import io, scenario
from cctrack.cli import main
from cctrack.tracker import CentroidCorrelationTracker

WIDTH, HEIGHT = 640, 480
FRAME_BYTES = WIDTH * HEIGHT


def _steps(tmp_path, frame_count):
    """The argv of a synth at 640x480 and of a track over its frames."""
    work = tmp_path / f"run{frame_count}"
    work.mkdir()
    scenario_config = work / "scenario.json"
    scenario_config.write_text(json.dumps({
        "preset": "small", "frame_count": frame_count, "image_size": [WIDTH, HEIGHT],
        "rng_seed": 5,
    }))
    tracker_config = work / "tracker.json"
    tracker_config.write_text(json.dumps({"detection_interval": 5}))
    data = work / "data"
    synth = ["synth", "--config", str(scenario_config), "--out-dir", str(data)]
    track = [
        "track", "--detections", str(data / "detections.jsonl"), "--frames", str(data / "frames"),
        "--config", str(tracker_config), "--out", str(work / "trajectories.csv"),
    ]
    return synth, track


def _peak_bytes(argv):
    """Peak bytes allocated while main(argv) runs, numpy buffers included."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_peak_does_not_grow_with_the_frame_count(self, tmp_path, capsys):
        # Holding every frame would add 30 frames' bytes from 10 frames to 40.
        short = [_peak_bytes(argv) for argv in _steps(tmp_path, 10)]
        long = [_peak_bytes(argv) for argv in _steps(tmp_path, 40)]
        capsys.readouterr()
        for step, few, many in zip(("synth", "track"), short, long):
            assert few > FRAME_BYTES, (step, few)
            assert many - few < 2 * FRAME_BYTES, (step, few, many)

    @pytest.mark.parametrize("frame_count", [2000, 8000])
    def test_track_frees_each_frames_detections(self, tmp_path, capsys, frame_count):
        # Holding every detection as well as the tracker's history and the
        # trajectory rows peaks at about twice the parsed list; freeing each
        # frame's detections after its update lets those reuse the memory.
        work = tmp_path / "noiseless"
        work.mkdir()
        (work / "scenario.json").write_text(json.dumps({
            "preset": "noiseless", "frame_count": frame_count, "render_frames": False,
        }))
        (work / "tracker.json").write_text("{}")
        assert main(["synth", "--config", str(work / "scenario.json"), "--out-dir", str(work)]) == 0
        detections = work / "detections.jsonl"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parsed = io.read_detections(detections)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(parsed) == 3 * frame_count
        del parsed
        peak = _peak_bytes([
            "track", "--detections", str(detections), "--config", str(work / "tracker.json"),
            "--out", str(work / "trajectories.csv"),
        ])
        capsys.readouterr()
        assert peak < 1.35 * retained, (peak, retained)

    def test_frame_functions_return_iterators(self, tmp_path):
        cfg = scenario.ScenarioConfig(num_people=1, frame_count=3, image_size=(32, 24),
                                      person_box_size=8)
        frames = scenario.render_frames(scenario.generate(cfg))
        assert isinstance(frames, Iterator)
        io.write_frames(tmp_path / "frames", frames)
        assert isinstance(io.read_frames(tmp_path / "frames"), Iterator)

    def test_track_reads_each_frame_when_its_update_comes(self, tmp_path, capsys, monkeypatch):
        synth, track = _steps(tmp_path, 12)
        assert main(synth) == 0
        reads = []
        read_pgm = io.read_pgm

        def counting_read(path):
            reads.append(path)
            return read_pgm(path)

        reads_at_update = []
        update = CentroidCorrelationTracker.update

        def recording_update(self, *args, **kwargs):
            reads_at_update.append(len(reads))
            return update(self, *args, **kwargs)

        monkeypatch.setattr(io, "read_pgm", counting_read)
        monkeypatch.setattr(CentroidCorrelationTracker, "update", recording_update)
        assert main(track) == 0
        capsys.readouterr()
        assert len(reads_at_update) == 12
        for k, count in enumerate(reads_at_update):
            assert count <= k + 1, reads_at_update
