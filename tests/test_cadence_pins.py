"""Pinned digests for the cadence edge cases the golden runs do not reach.

``tests/test_golden.py`` composes 5-section plans only. The final-bar
cadence applies to the last of two or more sections, so a 1-section plan
(no cadence) and a 2-section plan (its second section cadences) are pinned
here, in both planner modes, for the ``inspire`` mood.
"""

import hashlib
import json

import pytest

from vidscore.pipeline import PipelineConfig, stage_compose, stage_plan

FPS = 30

PINS = {
    (1, "global"): (
        "b2acc1c04d64cb00153553e6942e5dd004c21a1cb2841e346090cc53782890cc",
        "9589fef519af16ef35b8c0078c1f8db6d89b2d334bae4b9fa0d67e2975b8621d",
    ),
    (1, "per-scene-energy"): (
        "b2acc1c04d64cb00153553e6942e5dd004c21a1cb2841e346090cc53782890cc",
        "9589fef519af16ef35b8c0078c1f8db6d89b2d334bae4b9fa0d67e2975b8621d",
    ),
    (2, "global"): (
        "21fee1d435ea1aa9dd274cf930712134bb53aaef2cd42db42399f2cce5603e4f",
        "1149046b4c5b093f75fb76c855f2cf992ef19de52d3c1f5a61cdde96ebc18afb",
    ),
    (2, "per-scene-energy"): (
        "23cf1c1b53f135e942d3fbbf8150955a1d9fa4745ef1ac2b49ef9f569cac5a10",
        "fc1480bd8c8feb2e52406022e4623ef27e81efc68edfc3137dbff418589ef9fc",
    ),
}

# per-scene (seconds, object count); whole phrases for inspire at some tempo
SCENES = ((24, 3), (48, 9))


def sha_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_inputs(directory, count):
    scenes, counts, start = [], {}, 0
    for i, (seconds, objects) in enumerate(SCENES[:count]):
        end = start + seconds * FPS
        scenes.append({
            "id": i,
            "start_frame": start,
            "end_frame": end,
            "start_s": start / FPS,
            "end_s": end / FPS,
            "opens_with": "start-of-video" if i == 0 else "cut",
            "closes_with": "end-of-video" if i == count - 1 else "cut",
        })
        counts[str(i)] = objects
        start = end
    scenes_path = directory / "scenes.json"
    scenes_path.write_text(json.dumps({"fps": [FPS, 1], "total_frames": start,
                                       "scenes": scenes}))
    detections = directory / "detections.json"
    detections.write_text(json.dumps({"per_scene": counts}))
    return str(scenes_path), str(detections)


@pytest.mark.parametrize("count, mode", sorted(PINS))
def test_short_plans_byte_identical(tmp_path, count, mode):
    scenes_path, detections = write_inputs(tmp_path, count)
    config = PipelineConfig(mood="inspire", planner_mode=mode, rng_seed=4242,
                            detections=detections, output_dir=str(tmp_path))
    plan = stage_plan(config, scenes_path)
    events = str(tmp_path / "events.json")
    midi = stage_compose(config, plan, dump_events=events)
    assert (sha_of(midi), sha_of(events)) == PINS[(count, mode)]
