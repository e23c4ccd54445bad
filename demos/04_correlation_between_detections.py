"""Bridge the frames between detector invocations with patch correlation.

Running the detector on every frame is expensive on small devices. With a
detection interval of N, the tracker only consumes detections every Nth
frame and advances each live box through the other frames by normalized
cross-correlation: the box's patch from the previous frame is searched
for in the current one.
"""

import numpy as np

from cctrack import (
    BoundingBox,
    CentroidCorrelationTracker,
    TrackerConfig,
    correlate_track,
    generate,
    group_by_frame,
    preset_config,
    render_frames,
)

# --- raw NCC first: recover a known shift ---------------------------------
rng = np.random.default_rng(3)
prev = rng.integers(0, 256, size=(60, 80)).astype(np.uint8)
cur = np.roll(prev, shift=(2, 5), axis=(0, 1))  # content moves +5 right, +2 down

result = correlate_track(prev, cur, BoundingBox(30, 20, 50, 40), search_margin=8)
print(f"planted shift (+5, +2), NCC recovered (dx, dy) = ({result.dx}, {result.dy}), "
      f"peak score {result.score:.3f}")

# --- now inside the tracker ------------------------------------------------
config = preset_config("noiseless", num_people=1, frame_count=24,
                       image_size=(160, 120), person_box_size=24,
                       speed_range=(2.0, 3.0), rng_seed=6)
scn = generate(config)
frames = render_frames(scn)

by_frame = group_by_frame(scn.detections)

interval = 4
tracker = CentroidCorrelationTracker(TrackerConfig(
    max_distance=40.0, detection_interval=interval, search_margin=8,
))

print(f"\ndetector runs every {interval} frames; correlation fills the gaps:")
for frame in range(config.frame_count):
    # The tracker owns the schedule: run the detector only when it asks.
    detecting = tracker.detects_next
    tracker.update(frame, by_frame.get(frame, ()) if detecting else (), frames[frame])
    (track,) = tracker.live_tracks()
    mode = "detect   " if detecting else "correlate"
    if frame < 9 or frame == config.frame_count - 1:
        print(f"  frame {frame:>2} [{mode}] track {track.id} at "
              f"({track.centroid.x:6.1f}, {track.centroid.y:6.1f})")

truth = [g for g in scn.ground_truth if g.frame_index == config.frame_count - 1][0]
(track,) = tracker.live_tracks()
drift = np.hypot(track.centroid.x - (truth.bbox.x1 + truth.bbox.x2) / 2,
                 track.centroid.y - (truth.bbox.y1 + truth.bbox.y2) / 2)
print(f"\nafter {config.frame_count} frames the tracked centroid sits "
      f"{drift:.2f} px from the true position, with one identity throughout")
