"""Golden digests: the artifacts of every stage stay byte-identical.

Each artifact kind is pinned by one combined sha256 over the per-artifact
digests, in a fixed order. The pinned values were computed before the
detector, planner and helper clean-up that removed duplicate code paths; a
refactor that is meant to keep behaviour must keep them. On a mismatch the
per-artifact digests are printed so the first diverging run can be found.
"""

import hashlib
import json

import numpy as np
import pytest

from vidscore.moods import COMPLEXITIES, list_moods
from vidscore.pipeline import (
    PipelineConfig,
    stage_analyze,
    stage_compose,
    stage_mix_loops,
    stage_plan,
)
from vidscore.planner import PLANNER_MODES

from conftest import CUT_SAFE_COLORS, VideoBuilder, write_wave

GOLDEN = {
    "scenes.json": "ebddda77cde2502788f50ac331708c698eb01e2e77280cb2c6e5cace05d0d974",
    "plan.ini": "f9123638090ec3cb9d4123d335a016772765708300f339228110690da34d1931",
    "soundtrack.mid": "234846cf4bce3e353bdce9e4900f6372868983a92456392b2e7732248c557949",
    "events.json": "69a59e4685c2cf23de50084cee69d42d4a1d448fa9740f740dd957e0c2fdb3d0",
    "soundtrack.wav": "790e945ec72fcf51e4674f23552505705e2a6418c7bafa4da4f3bf3060ea6727",
}

FPS = 30
SCENE_SECONDS = (24, 48, 24, 72, 24)  # whole phrases for every shipped mood
# per-frame object counts per scene, spread so all three energies occur
SCENE_COUNTS = ((1, 2), (9, 11), (4, 6), (0, 1), (5, 5))
MOTIF_RUN = ("inspire", "per-scene-energy", "complex")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined(digests):
    return sha("\n".join(f"{name} {digest}" for name, digest in digests).encode())


def whole_phrase_scenes():
    """A scenes.json whose every scene is a whole number of phrases for at
    least one (tempo, signature) of each shipped mood."""
    scenes, start = [], 0
    for i, seconds in enumerate(SCENE_SECONDS):
        end = start + seconds * FPS
        scenes.append({
            "id": i,
            "start_frame": start,
            "end_frame": end,
            "start_s": start / FPS,
            "end_s": end / FPS,
            "opens_with": "start-of-video" if i == 0 else "cut",
            "closes_with": "end-of-video" if i == len(SCENE_SECONDS) - 1 else "cut",
        })
        start = end
    return {"fps": [FPS, 1], "total_frames": start, "scenes": scenes}


def per_frame_detections(doc):
    records = []
    for scene, counts in zip(doc["scenes"], SCENE_COUNTS):
        for k, frame in enumerate(range(scene["start_frame"], scene["end_frame"], 90)):
            records.append({"frame": frame, "count": counts[k % 2]})
    return {"per_frame": records}


def motif_smf() -> bytes:
    """Format 0, 480 PPQN: a rising figure with one overlap and one rest."""
    events = b""
    for delta, status, pitch, velocity in [
        (0, 0x90, 60, 90), (480, 0x80, 60, 0), (0, 0x90, 62, 80),
        (240, 0x90, 67, 100), (240, 0x80, 62, 0), (480, 0x80, 67, 0),
        (240, 0x90, 64, 70), (720, 0x80, 64, 0),
    ]:
        events += bytes([delta >> 7 | 0x80, delta & 0x7F] if delta > 127 else [delta])
        events += bytes([status, pitch, velocity])
    events += b"\x00\xff\x2f\x00"
    header = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big")
    header += (1).to_bytes(2, "big") + (480).to_bytes(2, "big")
    return header + b"MTrk" + len(events).to_bytes(4, "big") + events


def write_stems(directory):
    rng = np.random.default_rng(2024)
    rate = 8000
    entries = []
    for rank, (label, seconds) in enumerate([("beat", 1.5), ("bass", 4.0), ("keys", 6.25)], 1):
        samples = rng.integers(-9000, 9000, size=(int(seconds * rate), 2), dtype=np.int16)
        write_wave(str(directory / f"{label}.wav"), samples, rate)
        entries.append({"label": label, "path": f"{label}.wav", "activation_rank": 4 - rank})
    manifest = directory / "stems.json"
    manifest.write_text(json.dumps(entries))
    return str(manifest)


def analyze_digests(directory):
    builder = VideoBuilder(width=64, height=36, fps=(FPS, 1))
    # the fade's last ramp step lands exactly on the default threshold, 12
    builder.add_run(CUT_SAFE_COLORS[0], 40).add_run((120, 120, 120), 40)
    builder.add_fade(level=120, black_frames=5).add_run((120, 120, 120), 30)
    builder.add_run(CUT_SAFE_COLORS[2], 25)
    config = PipelineConfig(source=builder.write(directory), output_dir=str(directory))
    path, count = stage_analyze(config)
    assert count == 4  # one cut, one fade, one more cut
    return [("analyze", sha(open(path, "rb").read()))]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    out = {"scenes.json": analyze_digests(directory)}

    doc = whole_phrase_scenes()
    scenes_path = directory / "scenes.json"
    scenes_path.write_text(json.dumps(doc, indent=2) + "\n")
    detections = directory / "detections.json"
    detections.write_text(json.dumps(per_frame_detections(doc)))
    motif = directory / "motif.mid"
    motif.write_bytes(motif_smf())

    for kind in ("plan.ini", "soundtrack.mid", "events.json"):
        out[kind] = []
    for mood in list_moods():
        for mode in PLANNER_MODES:
            for complexity in COMPLEXITIES:
                run = (mood, mode, complexity)
                config = PipelineConfig(
                    mood=mood,
                    complexity=complexity,
                    planner_mode=mode,
                    rng_seed=4242,
                    detections=str(detections),
                    melody=str(motif) if run == MOTIF_RUN else None,
                    output_dir=str(directory),
                )
                name = "/".join(run)
                plan = stage_plan(config, str(scenes_path))
                events = str(directory / "events.json")
                midi = stage_compose(config, plan, dump_events=events)
                for kind, path in (("plan.ini", plan), ("soundtrack.mid", midi),
                                   ("events.json", events)):
                    out[kind].append((name, sha(open(path, "rb").read())))

    config = PipelineConfig(stems=write_stems(directory), output_dir=str(directory))
    wav = stage_mix_loops(config, str(scenes_path))
    out["soundtrack.wav"] = [("mix-loops", sha(open(wav, "rb").read()))]
    return out


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_artifacts_byte_identical(digests, kind):
    got = combined(digests[kind])
    if got != GOLDEN[kind]:
        for name, digest in digests[kind]:
            print(f"{kind} {name} {digest}")
    assert got == GOLDEN[kind], f"{kind}: combined digest {got}"
