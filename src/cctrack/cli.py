"""Command-line front door: synth, track, eval, sweep, priorboxes, convcheck.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 property-suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import io
from .evaluation import threshold_sweep
from .geometry import config_from_fields, require_fraction, require_number
from .priorbox import default_layer_specs, prior_box_count

# Each command imports scenario, selfcheck or tracker itself, so numpy is
# loaded only where there are pixels: by synth, track --frames and convcheck.
if TYPE_CHECKING:
    from .scenario import ScenarioConfig
    from .tracker import FrameUpdate

USAGE_ERROR = 1
DATA_ERROR = 2
CHECK_FAILURE = 3

SWEEP_COLUMNS = ["threshold", "tp", "fp", "fn", "tn", "precision", "recall", "accuracy"]

# The thresholds a range may expand to: a 1e-5 step across [0, 1].
MAX_THRESHOLDS = 100_001


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 and a one-line diagnostic."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def parse_threshold_range(text: str) -> list[float]:
    """Expand start:end:step into an inclusive list (1e-9 endpoint tolerance).

    start and end must be finite numbers in [0, 1], and step at least the
    1e-9 quantum the thresholds are rounded to. A range of more than
    MAX_THRESHOLDS thresholds is rejected before any is built.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"threshold range must be start:end:step, got {text!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"threshold range has non-numeric parts: {text!r}") from None
    require_fraction("threshold range start", start)
    require_fraction("threshold range end", end)
    if not require_number("threshold step", step) >= 1e-9:
        raise ValueError(f"threshold step must be at least 1e-9, the rounding quantum, got {step}")
    if end < start - 1e-9:
        raise ValueError(f"threshold range end {end} precedes start {start}")
    count = int(math.floor((end - start) / step + 1e-9)) + 1
    if count > MAX_THRESHOLDS:
        raise ValueError(f"threshold range expands to {count} thresholds, more than {MAX_THRESHOLDS}")
    # Off the 1e-9 grid, two steps can round to one value, which is kept once.
    # The endpoint tolerance can carry the last step past end: it stops there.
    last = round(end, 9)
    thresholds: list[float] = []
    for i in range(count):
        threshold = min(round(start + i * step, 9), last)
        if not thresholds or threshold != thresholds[-1]:
            thresholds.append(threshold)
    return thresholds


def _load_json_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc.msg} (line {exc.lineno})") from None
        except RecursionError:
            raise ValueError("malformed JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


@contextlib.contextmanager
def _errors_name(source: str):
    """Turn a TypeError or ValueError raised in the block into a FormatError naming source."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise io.FormatError(f"{source}: {exc}") from None


def _file_key(path) -> object:
    """Device and inode of an existing file, else its real path: equal keys name one file."""
    try:
        stat = os.stat(path)
    except OSError:  # it does not exist (yet)
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _flags(args, *flags: str) -> list[tuple[str, str]]:
    """(flag, path) for each of these flags that is set."""
    return [(flag, getattr(args, flag)) for flag in flags if getattr(args, flag)]


def _frame_files(flag: str, directory) -> list[tuple[str, Path]]:
    """(flag, path) for each *.pgm file of a directory, as read_frames finds them."""
    return [(flag, path) for path in Path(directory).glob("*.pgm")]


def _require_distinct(outputs: list[tuple], inputs: list[tuple]) -> None:
    """Reject an output that names an input's file or another output's path.

    outputs and inputs are (flag, path) pairs. Called before any file is
    read, opened or deleted, so a clash leaves every file as it was.
    """
    outs = [(flag, path, _file_key(path)) for flag, path in outputs]
    ins = [(flag, path, _file_key(path)) for flag, path in inputs]
    for i, (out, out_path, key) in enumerate(outs):
        for other, _, other_key in outs[i + 1 :] + ins:
            if key == other_key:
                raise ValueError(f"--{out} and --{other} name the same file: {out_path}")


def _frame_update_json(update: FrameUpdate) -> str:
    """One trace line: the update as JSON, in json.dumps's layout and key order."""
    number = io.format_number
    matched = ", ".join(
        [f"[{number(tid)}, {io.detection_json(det)}]" for tid, det in update.matched]
    )
    return (
        f'{{"frame": {number(update.frame_index)}, "matched": [{matched}], '
        f'"registered": [{", ".join(map(number, update.registered))}], '
        f'"disappeared_incremented": [{", ".join(map(number, update.disappeared_incremented))}], '
        f'"deregistered": [{", ".join(map(number, update.deregistered))}], '
        f'"correlated": [{", ".join(map(number, update.correlated))}]}}'
    )


@contextlib.contextmanager
def _frames_fit(source: str, cfg: ScenarioConfig):
    """Turn a MemoryError raised in the block into a FormatError naming image_size."""
    try:
        yield
    except MemoryError:
        w, h = cfg.image_size
        raise io.FormatError(f"{source}: image_size {w}x{h} frames do not fit in memory") from None


def _cmd_synth(args) -> int:
    from . import scenario

    # The files synth writes, and the earlier run's frames it deletes.
    out_dir = Path(args.out_dir)
    outputs = [("out-dir", out_dir / "detections.jsonl"), ("out-dir", out_dir / "groundtruth.csv")]
    _require_distinct(outputs + _frame_files("out-dir", out_dir / "frames"), _flags(args, "config"))
    with _errors_name(args.config):
        config_data = _load_json_config(args.config)
        render = config_data.pop("render_frames", True)
        if not isinstance(render, bool):
            raise ValueError(f"render_frames must be true or false, got {render!r}")
        cfg = scenario.config_from_dict(config_data)
    if args.seed is not None:
        with _errors_name("--seed"):
            cfg = dataclasses.replace(cfg, rng_seed=args.seed)

    scn = scenario.generate(cfg)
    if render:
        # The first frame is drawn before any file is written or deleted,
        # so frames too large for memory leave --out-dir as it was.
        with _frames_fit(args.config, cfg):
            frames = scenario.render_frames(scn)
            frames = itertools.chain([next(frames)], frames)
    # Frames of an earlier run would be read back as this run's.
    for stale in (out_dir / "frames").glob("*.pgm"):
        stale.unlink()
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_detections(out_dir / "detections.jsonl", scn.detections)
    io.write_ground_truth(out_dir / "groundtruth.csv", scn.ground_truth)
    message = (
        f"synth: {cfg.crowd_category} crowd of {cfg.num_people} over {cfg.frame_count} frames "
        f"(seed {cfg.rng_seed}): {len(scn.ground_truth)} ground-truth boxes, "
        f"{len(scn.detections)} detections"
    )
    if render:
        with _frames_fit(args.config, cfg):
            written = io.write_frames(out_dir / "frames", frames)
        message += f", {len(written)} frames"
    print(message)
    return 0


def _cmd_track(args) -> int:
    from .tracker import CentroidCorrelationTracker, FrameUpdate, TrackerConfig

    inputs = _flags(args, "detections", "config")
    if args.frames:
        inputs += _frame_files("frames", args.frames)
    _require_distinct(_flags(args, "out", "trace"), inputs)
    # --out is written only on success: its directory is checked before any work.
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        raise ValueError(f"--out: {out_dir} is not a directory")
    detections = io.read_detections(args.detections)
    frames = io.read_frames(args.frames) if args.frames else iter(())
    with _errors_name(args.config):
        config = config_from_fields(TrackerConfig, _load_json_config(args.config))

    if not detections and not args.frames:
        raise io.FormatError(f"{args.detections}: no frames to track (empty input)")

    tracker = CentroidCorrelationTracker(config)
    interval = config.detection_interval
    rows = []
    live = 0
    frame_index = 0
    # The reader keeps detections in frame order, so reversed, each frame's
    # group comes off the end, and tracked detections are freed.
    detections.reverse()
    trace_file = open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext()
    with trace_file as trace:
        # Frames are read as the loop reaches them. It runs until both the
        # frames and the detections are used up, and frame_index ends at
        # the number of frames tracked.
        while True:
            pixels = next(frames, None)
            if pixels is None:
                if not detections:
                    break
                if not live:
                    # With no live track and no pixels, an update without
                    # detections only counts the call and traces empty lists.
                    # Skipping whole intervals keeps the schedule's phase.
                    upcoming = detections[-1].frame_index
                    skip_to = frame_index + (upcoming - frame_index) // interval * interval
                    if trace:
                        for skipped in range(frame_index, skip_to):
                            trace.write(_frame_update_json(FrameUpdate(skipped)) + "\n")
                    frame_index = skip_to
            group = []
            while detections and detections[-1].frame_index == frame_index:
                group.append(detections.pop())
            update = tracker.update(frame_index, group if tracker.detects_next else (), pixels)
            live += len(update.registered) - len(update.deregistered)
            if trace:
                trace.write(_frame_update_json(update) + "\n")
            # positions come in ascending id order, so rows are in file order.
            for tid, point in update.positions:
                rows.append((tid, frame_index, point.x, point.y))
            frame_index += 1

    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(",".join(io.TRAJECTORY_HEADER) + "\n")
        number = io.format_number
        for tid, frame, cx, cy in rows:
            handle.write(f"{number(tid)},{number(frame)},{number(cx)},{number(cy)}\n")
    print(
        f"track: {frame_index} frames, {tracker.next_id} identities registered, "
        f"{len(tracker.live_tracks())} live at end -> {args.out}"
    )
    return 0


def _evaluate(args, thresholds: list[float]):
    """Check the shared flags, read both files and score them at each threshold."""
    require_fraction("--iou", args.iou)
    if args.frame_count is not None and args.frame_count < 0:
        raise ValueError(f"--frame-count must be non-negative, got {args.frame_count}")
    detections = io.read_detections(args.detections)
    ground_truth = io.read_ground_truth(args.groundtruth)
    # Every other argument is checked by now: what can fail is the frame count.
    with _errors_name("--frame-count"):
        return threshold_sweep(detections, ground_truth, thresholds, args.iou, args.frame_count)


def _cmd_eval(args) -> int:
    require_fraction("--threshold", args.threshold)
    (report,) = _evaluate(args, [args.threshold])
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_sweep(args) -> int:
    _require_distinct(_flags(args, "out"), _flags(args, "detections", "groundtruth"))
    with _errors_name("--thresholds"):
        thresholds = parse_threshold_range(args.thresholds)
    reports = _evaluate(args, thresholds)
    lines = [",".join(SWEEP_COLUMNS)]
    for report in reports:
        row = report.to_dict()
        lines.append(",".join(io.format_number(row[column]) for column in SWEEP_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_priorboxes(args) -> int:
    specs = default_layer_specs()
    if args.layer is not None:
        matches = [s for s in specs if s.name == args.layer]
        if not matches:
            names = ", ".join(s.name for s in specs)
            raise io.FormatError(f"unknown layer {args.layer!r}; known layers: {names}")
        specs = tuple(matches)
    print(f"{'layer':<10} {'grid':>7} {'boxes/cell':>11} {'priors':>7}")
    for spec in specs:
        grid = f"{spec.grid_w}x{spec.grid_h}"
        print(f"{spec.name:<10} {grid:>7} {spec.boxes_per_cell:>11} {spec.num_priors:>7}")
    if args.layer is None:
        print(f"total {prior_box_count(specs)}")
    return 0


def _cmd_convcheck(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    from . import selfcheck

    results = selfcheck.run_all(seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failed += 1
        print(f"{status} {result.name}: {result.detail}")
    print(f"convcheck: {len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cctrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic scenario into a directory")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config rng_seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--detections", required=True, help="detection JSONL file")
    p.add_argument("--frames", default=None, help="directory of PGM frames (enables correlation)")
    p.add_argument("--config", required=True, help="tracker config JSON")
    p.add_argument("--out", required=True, help="trajectories CSV output path")
    p.add_argument("--trace", default=None, help="optional frame-update JSONL trace path")
    p.set_defaults(func=_cmd_track)

    # eval is a one-threshold sweep: the two share these flags.
    scoring = _Parser(add_help=False)
    scoring.add_argument("--detections", required=True)
    scoring.add_argument("--groundtruth", required=True)
    scoring.add_argument("--iou", type=float, default=0.5, help="IoU matching threshold")
    scoring.add_argument("--frame-count", type=int, help="frame universe for TN counting")

    p = sub.add_parser("eval", parents=[scoring], help="metrics at one confidence threshold (JSON)")
    p.add_argument("--threshold", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[scoring], help="metrics swept over thresholds (CSV)")
    p.add_argument("--thresholds", default="0.1:0.9:0.1", help="range start:end:step, inclusive")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("priorboxes", help="detection-layer grids and prior-box totals")
    p.add_argument("--layer", default=None, help="restrict to one layer by name")
    p.set_defaults(func=_cmd_priorboxes)

    p = sub.add_parser("convcheck", help="run the convolution-kernel property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_convcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"cctrack: error: {exc.filename or exc}: no such file", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, TypeError, OSError) as exc:
        print(f"cctrack: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
