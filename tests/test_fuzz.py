"""Seeded mutation test over every parser: malformed content inside a readable
file may only leave through a VidscoreError, never a bare exception."""

import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

import vidscore
from vidscore.composer import compose_plan, load_seed_melody
from vidscore.energy import load_detections
from vidscore.errors import MalformedSourceError, PlanParseError, VidscoreError
from vidscore.files import read_input
from vidscore.frames import _read_ppm, open_frame_source
from vidscore.loops import load_stem_manifest, read_wav
from vidscore.midi import InstrumentMap, read_smf, write_smf
from vidscore.moods import load_mood
from vidscore.pipeline import PipelineConfig, stage_plan
from vidscore.planner import parse_ini, resolve_plan
from vidscore.scenes import DetectorConfig, FrameSpec, merge_scene_lists, scenes_from_json
from vidscore.scenes import scenes_to_json

from conftest import solid_frame, write_ppm, write_wave

MUTATIONS = 300
DATA = Path(vidscore.__file__).parent / "data"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per parser, each named by the parser case that reads it."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = FrameSpec(4, 4, 30, 1)
    scenes = merge_scene_lists([450], [], 900, spec, DetectorConfig())  # two 15 s scenes
    (root / "scenes.json").write_text(scenes_to_json(scenes, (30, 1), 900))
    plan = stage_plan(PipelineConfig(output_dir=str(root), rng_seed=1), str(root / "scenes.json"))
    assert plan == str(root / "plan.ini")
    mood = load_mood("inspire")
    score = compose_plan(resolve_plan(parse_ini(Path(plan).read_text()), mood), mood)
    (root / "motif.mid").write_bytes(write_smf(score, InstrumentMap.default()))
    (root / "mood.json").write_text((DATA / "moods" / "inspire.json").read_text())
    (root / "instruments.json").write_text((DATA / "instruments.json").read_text())
    write_ppm(root / "frame.ppm", 4, 4, solid_frame(4, 4, (200, 30, 60)))
    (root / "clip.rgb24").write_bytes(solid_frame(4, 4, (10, 20, 30)) * 2)
    (root / "clip.hdr").write_text("width=4 height=4 fps_num=30 fps_den=1\n")
    write_wave(str(root / "tone.wav"), (np.arange(64) * 300).astype(np.int16), 8000)
    (root / "stems.json").write_text(json.dumps([
        {"label": "low", "path": "tone.wav", "activation_rank": 1},
        {"label": "high", "path": "tone.wav", "activation_rank": 2},
    ]))
    (root / "per_scene.json").write_text(json.dumps({"per_scene": {"0": 2.5, "1": 0}}))
    (root / "per_frame.json").write_text(json.dumps({"per_frame": [
        {"frame": 0, "count": 1}, {"frame": 449, "count": 3}, {"frame": 600, "count": 0.5},
    ]}))
    return {"root": root, "scenes": scenes, "score": score}


def parse_motif(path, valid):
    load_seed_melody(read_smf(Path(path).read_bytes()))


def parse_plan(path, valid):
    doc = parse_ini(read_input(path, PlanParseError, "plan"))
    mood = load_mood(doc.mood)
    compose_plan(resolve_plan(doc, mood), mood)


def parse_scenes(path, valid):
    scenes_from_json(read_input(path, MalformedSourceError, "scene list"))


def parse_source(path, valid):
    for _frame in open_frame_source(path):
        pass


def parse_detections(path, valid):
    load_detections(path, valid["scenes"])


def parse_instruments(path, valid):
    write_smf(valid["score"], InstrumentMap.from_file(path))


# case -> (file mutated, parser, the path the parser is given if not that file)
CASES = {
    "smf motif": ("motif.mid", parse_motif, None),
    "plan.ini": ("plan.ini", parse_plan, None),
    "scenes.json": ("scenes.json", parse_scenes, None),
    "mood": ("mood.json", lambda path, valid: load_mood(path), None),
    "ppm": ("frame.ppm", lambda path, valid: _read_ppm(path), None),
    "hdr": ("clip.hdr", parse_source, "clip.rgb24"),
    "stem wav": ("tone.wav", lambda path, valid: read_wav(path), None),
    "per-scene detections": ("per_scene.json", parse_detections, None),
    "per-frame detections": ("per_frame.json", parse_detections, None),
    "instrument map": ("instruments.json", parse_instruments, None),
    "stem manifest": ("stems.json", lambda path, valid: load_stem_manifest(path), None),
}


def mutate(rng, data):
    """Truncate, flip, splice or insert bytes, widen or retype a run of digits
    or nest a value in brackets; returns (description, bytes)."""
    kind = rng.choice(["truncate", "flip", "splice", "insert", "widen", "retype", "nest"])
    pos = rng.randrange(len(data) + 1)
    if kind in ("widen", "retype"):
        start, end = rng.choice([m.span() for m in re.finditer(rb"[0-9]+", data)] or [(pos, pos)])
        if kind == "widen":  # too big for a float at 400 digits, for int() at 5000
            value = b"9" * rng.choice([400, 5000])
        else:  # a JSON value of another type where a number was
            value = rng.choice([b"1.5", b"true", b'"7"', b"null"])
        what = f"{len(value)} digits" if kind == "widen" else value.decode()
        return f"{kind} {start}:{end} to {what}", data[:start] + value + data[end:]
    if kind == "nest":  # deeper than the recursion limit, where a JSON value may start
        pos = rng.choice([0] + [m.end() for m in re.finditer(rb"[\[:,]\s*", data)])
        return f"nest at {pos}", data[:pos] + b"[" * 200000 + data[pos:]
    if kind == "truncate":
        return f"truncate at {pos}", data[:pos]
    if kind == "flip":
        pos = min(pos, len(data) - 1)
        value = data[pos] ^ rng.randrange(1, 256)
        return f"flip byte {pos} to {value:#04x}", data[:pos] + bytes([value]) + data[pos + 1:]
    start = rng.randrange(len(data))
    chunk = data[start:start + rng.randint(1, 16)]
    if kind == "splice":  # a chunk of the file copied over another place in it
        return (f"splice {start}+{len(chunk)} over {pos}",
                data[:pos] + chunk + data[pos + len(chunk):])
    noise = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    return f"insert {noise!r} at {pos}", data[:pos] + noise + data[pos:]


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_input_leaves_through_a_vidscore_error(valid, tmp_path, case):
    name, parse, given = CASES[case]
    root = valid["root"]
    original = (root / name).read_bytes()
    parse(str(root / (given or name)), valid)  # the unmutated file parses
    for sibling in root.iterdir():
        if sibling.is_file():
            (tmp_path / sibling.name).write_bytes(sibling.read_bytes())
    target = tmp_path / name
    path = str(tmp_path / (given or name))
    rng = random.Random(f"{case}-1")
    escaped = []
    for _ in range(MUTATIONS):
        what, data = mutate(rng, original)
        target.write_bytes(data)
        try:
            parse(path, valid)
        except VidscoreError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other escape is the failure
            escaped.append(f"{what}: {type(exc).__name__}: {exc}")
    assert escaped == []
