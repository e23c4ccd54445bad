"""Track a synthetic crowd and watch identities survive detector noise.

The scenario generator emulates a detector over random walkers: some
detections go missing, boxes jitter, clutter appears. The tracker links
what survives into stable identities using nearest-centroid association
with distance gating and a disappearance allowance.
"""

from collections import Counter, defaultdict

from cctrack import (
    CentroidCorrelationTracker,
    TrackerConfig,
    generate,
    group_by_frame,
    preset_config,
)

config = preset_config("medium", rng_seed=11, frame_count=200)
scn = generate(config)
print(f"{config.crowd_category} crowd: {config.num_people} people, "
      f"{config.frame_count} frames, {len(scn.detections)} detections "
      f"(misses, jitter, and clutter included)")

by_frame = group_by_frame(scn.detections)

tracker = CentroidCorrelationTracker(TrackerConfig(
    max_disappearance=25,
    max_distance=40.0,
    confidence_threshold=0.5,
))

events = Counter()
sightings = defaultdict(list)  # track id -> [(frame, centroid)], one per sighting
for frame in range(config.frame_count):
    update = tracker.update(frame, by_frame.get(frame, ()))
    events["matched"] += len(update.matched)
    events["registered"] += len(update.registered)
    events["aged"] += len(update.disappeared_incremented)
    events["deregistered"] += len(update.deregistered)
    for track_id, point in update.positions:
        sightings[track_id].append((frame, point))

print("\nlifecycle event totals over the run:")
for name in ("matched", "registered", "aged", "deregistered"):
    print(f"  {name:<13} {events[name]:>6}")

live = tracker.live_tracks()
print(f"\n{len(live)} tracks live at the end (ids {[t.id for t in live]})")
print(f"{tracker.next_id} identities were ever registered "
      f"for {config.num_people} true people; extras come from clutter "
      f"and long disappearances")

longest = max(live, key=lambda t: len(sightings[t.id]))
path = sightings[longest.id]
first_frame, first_point = path[0]
last_frame, last_point = path[-1]
print(f"\ntrack {longest.id} covered frames {first_frame}..{last_frame} "
      f"({len(path)} sightings), "
      f"from ({first_point.x:.0f}, {first_point.y:.0f}) "
      f"to ({last_point.x:.0f}, {last_point.y:.0f})")
