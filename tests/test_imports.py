"""numpy is imported only by the commands that handle pixels.

Each check runs in a fresh interpreter, since the test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cctrack import cli, correlation, evaluation, io, scenario, tracker

SRC = Path(__file__).resolve().parents[1] / "src"

# The names `import cctrack` gave when it imported every submodule eagerly.
PACKAGE_NAMES = [
    "CorrelationResult", "correlate_track",
    "NINE_THRESHOLDS", "ConfusionCounts", "GroundTruthRecord", "MetricsReport", "count_tn",
    "evaluate_at", "group_by_frame", "match_frame", "metrics", "threshold_sweep",
    "BoundingBox", "Detection", "Point", "centroid", "euclidean", "iou",
    "BatchNormParams", "InvertedResidualWeights", "Tensor3", "batchnorm", "conv2d_full",
    "conv_output_size", "depthwise_conv", "depthwise_conv_macs", "depthwise_separable",
    "full_conv_macs", "inverted_residual", "pointwise_conv", "pointwise_conv_macs", "relu",
    "separable_conv_macs", "separable_to_full_mac_ratio",
    "FeatureMapSpec", "default_layer_specs", "generate_prior_centers", "prior_box_count",
    "SCENARIO_PRESETS", "Scenario", "ScenarioConfig", "crowd_category", "generate",
    "preset_config", "render_frames",
    "AssociationResult", "CentroidCorrelationTracker", "FrameUpdate", "Track",
    "TrackerConfig", "associate",
]
SUBMODULES = [
    "cli", "correlation", "evaluation", "geometry", "io", "kernels", "priorbox", "scenario",
    "selfcheck", "tracker",
]


def fresh_python(code: str, *args: str) -> str:
    """The stdout of code run by a new interpreter on the checkout's sources."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


RUN_COMMAND = """
import sys
from cctrack.cli import main
code = main(sys.argv[1:])
print(f"exit {code}, numpy loaded: {'numpy' in sys.modules}")
"""


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A small synthetic scenario with frames, and a tracker config."""
    root = tmp_path_factory.mktemp("imports")
    config = root / "synth.json"
    config.write_text(json.dumps({
        "num_people": 2, "frame_count": 4, "image_size": [64, 48], "person_box_size": 12,
    }))
    (root / "track.json").write_text(json.dumps({"detection_interval": 2}))
    assert cli.main(["synth", "--config", str(config), "--out-dir", str(root / "data")]) == 0
    return root


def command_argv(data: Path, command: str) -> list[str]:
    files = ["--detections", str(data / "data" / "detections.jsonl")]
    scoring = [*files, "--groundtruth", str(data / "data" / "groundtruth.csv")]
    track = ["track", *files, "--config", str(data / "track.json"),
             "--out", str(data / f"{command}.csv")]
    return {
        "eval": ["eval", *scoring, "--threshold", "0.5"],
        "sweep": ["sweep", *scoring, "--out", str(data / "sweep.csv")],
        "priorboxes": ["priorboxes"],
        "track": track,
        "track --frames": [*track, "--frames", str(data / "data" / "frames")],
        "synth": ["synth", "--config", str(data / "synth.json"),
                  "--out-dir", str(data / "resynth")],
    }[command]


@pytest.mark.parametrize(
    "command, loads_numpy",
    [("eval", False), ("sweep", False), ("priorboxes", False), ("track", False),
     ("track --frames", True), ("synth", True)],
)
def test_numpy_is_loaded_only_for_pixels(data, command, loads_numpy):
    out = fresh_python(RUN_COMMAND, *command_argv(data, command))
    assert out.splitlines()[-1] == f"exit 0, numpy loaded: {loads_numpy}"


def test_bare_import_resolves_every_name_and_submodule():
    code = """
import json, sys
import cctrack
bare = "numpy" in sys.modules
names, submodules = json.loads(sys.argv[1]), json.loads(sys.argv[2])
listed = set(dir(cctrack))
print(json.dumps({
    "numpy after bare import": bare,
    "unresolved": [n for n in names + submodules if getattr(cctrack, n, None) is None],
    "not in dir": [n for n in names + submodules if n not in listed],
    "not in __all__": [n for n in names if n not in cctrack.__all__],
    "version": cctrack.__version__,
}))
"""
    out = fresh_python(code, json.dumps(PACKAGE_NAMES), json.dumps(SUBMODULES))
    assert json.loads(out) == {
        "numpy after bare import": False,
        "unresolved": [],
        "not in dir": [],
        "not in __all__": [],
        "version": "0.1.0",
    }


def test_package_names_are_the_submodule_objects():
    import cctrack

    assert cctrack.correlate_track is correlation.correlate_track
    assert cctrack.threshold_sweep is evaluation.threshold_sweep
    assert cctrack.render_frames is scenario.render_frames
    assert cctrack.io is io
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cctrack.not_a_name


# benchmarks/child.py wraps these where the CLI looks them up at call time,
# so each must stay a global of the module named here.
@pytest.mark.parametrize(
    "module, name",
    [(cli, "_cmd_track"), (cli, "threshold_sweep"),
     (evaluation, "evaluate_at"), (evaluation, "match_frame"), (evaluation, "count_tn"),
     (tracker, "associate"), (tracker, "correlate_track"),
     (io, "read_detections"), (io, "read_ground_truth"), (io, "read_frames"),
     (io, "read_pgm"), (io, "write_detections"), (io, "write_ground_truth"),
     (io, "write_frames"), (scenario, "generate"), (scenario, "render_frames")],
)
def test_names_the_benchmark_wraps_are_module_globals(module, name):
    assert callable(vars(module).get(name))


def test_benchmark_wrappers_see_the_defining_objects():
    assert tracker.correlate_track is correlation.correlate_track
    assert cli.threshold_sweep is evaluation.threshold_sweep
    assert {"live_tracks", "update"} <= vars(tracker.CentroidCorrelationTracker).keys()
