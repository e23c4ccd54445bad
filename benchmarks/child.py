"""Child entry point: run one cctrack CLI step, instrumented from outside.

    python3 benchmarks/child.py MODE RECORD CLI-ARGS...

MODE is one of

  plain   no instrumentation; RECORD is not written.
  frames  wrap only CentroidCorrelationTracker.update and record one
          CLOCK_MONOTONIC start timestamp (ns) per call.
  spans   wrap the public functions of each layer where the CLI looks them
          up, and record one span per call plus exact work counts.

The record is kept in memory and written to RECORD as JSON when the CLI
returns. Nothing under src/ is modified: every wrapper is installed on the
imported module or class before cctrack.cli.main runs.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODES = ("plain", "frames", "spans")


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class SpanRecorder:
    """Spans as [parent, name, start_ns, end_ns, tag] plus named counters.

    A span's index in `spans` is its id; parent is -1 for a top-level call.
    Counters are computed from the arguments and return value of the
    wrapped call after its span has closed, so they cost no span time.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, owner, attribute: str, name: str, count=None, tag=None) -> None:
        original = getattr(owner, attribute)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            span_tag = tag(*args, **kwargs) if tag else None
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = _now_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _now_ns()
                stack.pop()
                spans[span_id] = [parent, name, start, end, span_tag]
            if count:
                count(counts, result, *args, **kwargs)
            return result

        setattr(owner, attribute, wrapper)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# Work counters. Each takes (counts, result, *call arguments) with the
# wrapped function's own parameter names, so positional and keyword calls
# bind the same way.


def _count_update(counts, result, tracker, frame_index, detections=(), frame=None):
    counts["tracker.matched"] += len(result.matched)
    counts["tracker.registered"] += len(result.registered)
    counts["tracker.deregistered"] += len(result.deregistered)
    counts["tracker.correlated"] += len(result.correlated)


def _count_live_tracks(counts, result, tracker):
    counts["tracker.live_tracks.history_points"] += sum(len(t.history) for t in result)


def _count_associate(counts, result, existing, incoming, max_distance):
    counts["tracker.associate.pairs"] += len(existing) * len(incoming)


def _count_correlate(counts, result, prev_frame, cur_frame, bbox, search_margin=20):
    height, width = prev_frame.shape
    counts["correlation.bytes_converted"] += 2 * height * width * 8
    if result.degenerate:
        counts["correlation.correlate_track.degenerate"] += 1
        return
    # Template raster and clipped search window, as the NCC search defines them.
    x1, y1 = math.floor(bbox.x1), math.floor(bbox.y1)
    x2 = max(math.ceil(bbox.x2), x1 + 1)
    y2 = max(math.ceil(bbox.y2), y1 + 1)
    search_w = min(width, x2 + search_margin) - max(0, x1 - search_margin)
    search_h = min(height, y2 + search_margin) - max(0, y1 - search_margin)
    template_w, template_h = x2 - x1, y2 - y1
    offsets = (search_w - template_w + 1) * (search_h - template_h + 1)
    counts["correlation.window_macs"] += offsets * template_w * template_h


def _count_match_frame(counts, result, detections, ground_truth, iou_threshold=0.5):
    counts["evaluation.iou_pairs"] += len(detections) * len(ground_truth)


def _count_read_pgm(counts, result, path):
    counts["io.read_pgm.bytes"] += result.nbytes


def _count_read_detections(counts, result, path):
    counts["io.read_detections.records"] += len(result)


def _update_schedule():
    """Tag each update as a detection or correlation frame.

    Follows the tracker's documented schedule: a call is a detection frame
    when the number of earlier calls on that instance is a multiple of
    config.detection_interval.
    """
    calls: dict[int, int] = {}

    def tag(tracker, *args, **kwargs):
        index = calls.get(id(tracker), 0)
        calls[id(tracker)] = index + 1
        return "detection" if index % tracker.config.detection_interval == 0 else "correlation"

    return tag


def install_spans(recorder: SpanRecorder) -> None:
    """Patch each layer's public functions at the module where they are looked up."""
    from cctrack import cli, evaluation, io, scenario, tracker

    tracker_class = tracker.CentroidCorrelationTracker
    patches = [
        (cli, "_cmd_track", "cli.track", None),
        (cli, "threshold_sweep", "evaluation.threshold_sweep", None),
        (evaluation, "evaluate_at", "evaluation.evaluate_at", None),
        (evaluation, "match_frame", "evaluation.match_frame", _count_match_frame),
        (evaluation, "count_tn", "evaluation.count_tn", None),
        (tracker_class, "live_tracks", "tracker.live_tracks", _count_live_tracks),
        (tracker, "associate", "tracker.associate", _count_associate),
        (tracker, "correlate_track", "correlation.correlate_track", _count_correlate),
        (io, "read_detections", "io.read_detections", _count_read_detections),
        (io, "read_ground_truth", "io.read_ground_truth", None),
        (io, "read_frames", "io.read_frames", None),
        (io, "read_pgm", "io.read_pgm", _count_read_pgm),
        (io, "write_detections", "io.write_detections", None),
        (io, "write_ground_truth", "io.write_ground_truth", None),
        (io, "write_frames", "io.write_frames", None),
        (scenario, "generate", "scenario.generate", None),
        (scenario, "render_frames", "scenario.render_frames", None),
    ]
    for owner, attribute, name, count in patches:
        recorder.wrap(owner, attribute, name, count)
    recorder.wrap(tracker_class, "update", "tracker.update", _count_update, _update_schedule())


def install_frame_clock(starts: list) -> None:
    """Record the CLOCK_MONOTONIC start of every tracker update, nothing else."""
    from cctrack import tracker

    tracker_class = tracker.CentroidCorrelationTracker
    original = tracker_class.update
    clock, monotonic = time.clock_gettime_ns, time.CLOCK_MONOTONIC

    def update(self, *args, **kwargs):
        starts.append(clock(monotonic))
        return original(self, *args, **kwargs)

    tracker_class.update = update


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in MODES:
        print(f"usage: child.py {{{'|'.join(MODES)}}} RECORD CLI-ARGS...", file=sys.stderr)
        return 1
    mode, record_path, cli_args = argv[0], Path(argv[1]), argv[2:]

    sys.path.insert(0, str(SRC))
    import cctrack

    if Path(cctrack.__file__).resolve().parent != SRC / "cctrack":
        print(f"child.py: cctrack imported from {cctrack.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from cctrack import cli

    record: dict = {}
    if mode == "frames":
        record["update_starts"] = []
        install_frame_clock(record["update_starts"])
    elif mode == "spans":
        recorder = SpanRecorder()
        install_spans(recorder)
    try:
        return cli.main(cli_args)
    finally:
        if mode == "spans":
            record = recorder.to_json()
        if mode != "plain":
            with open(record_path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
