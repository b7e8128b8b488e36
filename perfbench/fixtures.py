"""Seeded input generators for the three workloads, with their ground truth.

Each workload is a fixed list of job slots. A slot fixes everything that
sets a job's cost, so every seed gives the same amount of work: resolution,
frame count, mood and tempo, scene count, stem count and length, and also
the scene splits, colours, cut or fade at each boundary and per-scene object
levels, which come from a generator keyed by the slot alone (the program's
cost depends on them: frame statistics cost more on grey and red pixels than
on other hues, and mapping a detection to its scene costs more the later the
scene). The seed chooses the rest: pixel texture and noise, object-count
jitter, planner mode and complexity in full_run, the composer seed, motif
notes, stem waveforms and activation ranks.

Fixtures never touch vidscore code. Mood constants come from the shipped
mood JSON files, and motif ``.mid`` bytes are assembled by hand here. A
generated set is written under ``<cache>/<workload>-<seed>`` together with a
``jobs.json`` holding each job's settings and ground truth, and is reused by
later runs with the same seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import wave

import numpy as np

FPS = 30
MOODS = ("inspire", "ember", "drive", "bloom", "noir", "tide", "summit", "clockwork")
COMPLEXITIES = ("simple", "semi-complex", "complex")
PLANNER_MODES = ("global", "per-scene-energy")
KEEP_SETS = 2  # fixture sets kept per workload; older ones are deleted

# Scene colours. A cut always changes saturation (chromatic <-> grey) or
# value by 130 (grey <-> grey), so its HSV delta is far above the default
# cut threshold of 30. A fade joins two greys, so the dip to black moves only
# the value channel. Texture and noise are added equally to all three
# channels, which leaves hue and chroma untouched.
CHROMATIC = ((200, 60, 60), (60, 200, 60), (60, 60, 200),
             (200, 200, 60), (60, 200, 200), (200, 60, 200))
GREYS = (100, 230)
TEXTURE = 20  # static per-clip luma texture amplitude
NOISE = 3  # per-frame luma noise amplitude
NOISE_BANK = 8  # distinct noise frames per clip, drawn in a seeded order
FADE_BLACK_HALF = 2  # black frames on each side of a fade's boundary
FADE_RAMP = (0.75, 0.5, 0.25)  # value scale of the frames ramping to black

# full_run slots: (width, height, mood, tempo, units). A unit is the
# shortest phrase of the mood at that tempo that is a whole number of
# frames; the clip is `units` units long, split into 2-4 scenes of whole
# units, so every scene fits at the shared tempo in both planner modes.
FULL_RUN_SLOTS = (
    (96, 54, "clockwork", 125, 4),
    (96, 54, "noir", 96, 2),
    (128, 72, "ember", 90, 2),
    (128, 72, "inspire", 108, 3),
    (160, 90, "tide", 108, 2),
    (192, 108, "bloom", 120, 2),
    (256, 144, "summit", 135, 2),
    (320, 180, "drive", 144, 2),
    (480, 270, "drive", 144, 2),
)

# rescore slots: 16 jobs sweeping all moods in both planner modes over every
# complexity; about 10-30 minute videos with 40-80 scenes.
RESCORE_SLOTS = tuple(
    {
        "mood": MOODS[s % 8],
        "planner_mode": PLANNER_MODES[s // 8],
        "complexity": COMPLEXITIES[s % 3],
        "motif": s % 4 in (1, 2),
        "target_s": 600 + 80 * s,
        "scenes": 40 + (s * 21) % 41,
    }
    for s in range(16)
)

# loop_mix slots: (stems, stem seconds, channels, rate, video seconds, scenes)
LOOP_MIX_SLOTS = (
    (2, 1.0, 2, 44100, 180, 4),
    (3, 2.0, 2, 44100, 200, 6),
    (4, 4.0, 1, 48000, 240, 8),
    (5, 8.0, 2, 22050, 240, 10),
    (6, 1.5, 2, 44100, 180, 12),
    (7, 3.0, 2, 48000, 150, 14),
    (8, 6.0, 1, 22050, 240, 16),
    (8, 2.5, 2, 44100, 240, 20),
    (4, 5.0, 2, 48000, 150, 5),
    (6, 7.0, 1, 44100, 240, 9),
    (3, 3.5, 2, 22050, 240, 7),
    (5, 4.5, 1, 48000, 200, 11),
)

WORKLOADS = ("full_run", "rescore", "loop_mix")


def read_moods(src_root: str) -> dict:
    """The shipped mood documents, keyed by name."""
    folder = os.path.join(src_root, "vidscore", "data", "moods")
    moods = {}
    for name in MOODS:
        with open(os.path.join(folder, name + ".json"), "r", encoding="utf-8") as fh:
            moods[name] = json.load(fh)
    return moods


def phrase_frames(mood: dict, tempo: int, signature) -> int:
    """Frames in one phrase, phrase_bars * n * (4/d) * 60 / tempo seconds;
    raises unless that is a whole number of frames at FPS."""
    n, d = signature
    num = mood.get("phrase_length_bars", 4) * n * 4 * 60 * FPS
    if num % (d * tempo):
        raise ValueError(f"{mood['name']} {tempo} {n}/{d}: phrase is not whole frames")
    return num // (d * tempo)


def unit_frames(mood: dict, tempo: int) -> int:
    """Frames in the shortest whole-frame phrase of a mood at a tempo."""
    return min(pf for pf, t, _sig in exact_options(mood) if t == tempo)


def exact_options(mood: dict) -> list:
    """Every (phrase_frames, tempo, signature) of a mood that is whole frames."""
    lo, hi = mood["tempo_range"]
    options = []
    for tempo in range(lo, hi + 1):
        for sig in sorted(tuple(s) for s in mood["time_signatures"]):
            try:
                options.append((phrase_frames(mood, tempo, sig), tempo, sig))
            except ValueError:
                continue
    return sorted(options)


def split(total: int, parts: int, rng: random.Random) -> list:
    """A random composition of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def scene_table(frames_per_scene: list, kinds: list) -> list:
    """Scene bounds and transition kinds; kinds[i] is the boundary after
    scene i ("cut" or "fade")."""
    scenes, start = [], 0
    for i, count in enumerate(frames_per_scene):
        opens = "start-of-video" if i == 0 else ("fade-in" if kinds[i - 1] == "fade" else "cut")
        closes = "end-of-video" if i == len(frames_per_scene) - 1 else (
            "fade-out" if kinds[i] == "fade" else "cut")
        scenes.append({"id": i, "start_frame": start, "end_frame": start + count,
                       "opens_with": opens, "closes_with": closes})
        start += count
    return scenes


def scenes_document(scenes: list, total_frames: int) -> str:
    """scenes.json in the pipeline's interchange format."""
    doc = {
        "fps": [FPS, 1],
        "total_frames": total_frames,
        "scenes": [
            {**s, "start_s": round(s["start_frame"] / FPS, 3),
             "end_s": round(s["end_frame"] / FPS, 3)}
            for s in scenes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def detections_document(scenes: list, shape: random.Random, rng: random.Random) -> tuple:
    """Per-frame object counts: a base level per scene (from `shape`) plus
    jitter (from `rng`). Returns (json text, record count)."""
    parts = []
    for scene in scenes:
        base = shape.choice((0, 2, 5, 9))
        for frame in range(scene["start_frame"], scene["end_frame"]):
            parts.append('{"frame": %d, "count": %d}' % (frame, base + rng.randrange(3)))
    return '{"per_frame": [' + ", ".join(parts) + "]}\n", len(parts)


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def motif_smf(rng: random.Random) -> bytes:
    """A short single-track melody as SMF type 0 bytes at 480 PPQN."""
    body = bytearray()
    for _ in range(rng.randint(4, 8)):
        pitch = rng.choice((60, 62, 64, 65, 67, 69, 71, 72))
        length = rng.choice((240, 480, 960))
        body += _vlq(0) + bytes([0x90, pitch, 96])
        body += _vlq(length) + bytes([0x80, pitch, 0])
    body += _vlq(0) + b"\xff\x2f\x00"
    header = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
    header += (480).to_bytes(2, "big")
    return header + b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def scene_colours(scenes: list, rng: random.Random) -> list:
    """One colour per scene, ("grey", level) or ("rgb", (r, g, b)), such that
    every boundary is detected as its kind: a scene touching a fade is grey,
    chromatic never meets chromatic, and a grey -> grey cut swaps levels."""
    colours = []
    for scene in scenes:
        prev = colours[-1] if colours else None
        touches_fade = "fade-in" == scene["opens_with"] or "fade-out" == scene["closes_with"]
        if touches_fade or (prev is not None and prev[0] == "rgb"):
            if prev is not None and prev[0] == "grey" and scene["opens_with"] == "cut":
                colours.append(("grey", GREYS[1 - GREYS.index(prev[1])]))
            else:
                colours.append(("grey", rng.choice(GREYS)))
        elif prev is None:
            colours.append(rng.choice((("grey", rng.choice(GREYS)), ("rgb", rng.choice(CHROMATIC)))))
        else:
            colours.append(("rgb", rng.choice(CHROMATIC)))
    return colours


def frame_scales(scene: dict) -> np.ndarray:
    """Per-frame value scale of a scene: 1, ramping to 0 across a fade."""
    scales = np.ones(scene["end_frame"] - scene["start_frame"], dtype=np.float32)
    ramp, black = len(FADE_RAMP), FADE_BLACK_HALF
    if scene["opens_with"] == "fade-in":
        scales[:black] = 0.0
        scales[black:black + ramp] = FADE_RAMP[::-1]
    if scene["closes_with"] == "fade-out":
        scales[-black:] = 0.0
        scales[-black - ramp:-black] = FADE_RAMP
    return scales


def write_clip(path: str, width: int, height: int, scenes: list, colours: list,
               rng: np.random.Generator) -> None:
    """Raw RGB24 clip plus its .hdr sidecar. A fade's boundary frame B has
    black frames B-2 .. B+1, so the first frame under the fade threshold and
    the first back above it have B as their midpoint."""
    texture = rng.integers(-TEXTURE, TEXTURE + 1, size=(height, width)).astype(np.float32)
    bank = rng.integers(-NOISE, NOISE + 1, size=(NOISE_BANK, height, width, 1)).astype(np.float32)
    order = rng.integers(0, NOISE_BANK, size=scenes[-1]["end_frame"])
    with open(path, "wb") as fh:
        for scene, (kind, value) in zip(scenes, colours):
            rgb = np.array(value if kind == "rgb" else (value,) * 3, dtype=np.float32)
            steady = rgb[None, None, :] + texture[:, :, None]
            for offset, scale in enumerate(frame_scales(scene)):
                base = steady if scale == 1.0 else steady * scale
                pixels = np.clip(np.rint(base + bank[order[scene["start_frame"] + offset]]), 0, 255)
                fh.write(pixels.astype(np.uint8).tobytes())
    with open(os.path.splitext(path)[0] + ".hdr", "w", encoding="utf-8") as fh:
        fh.write(f"width={width} height={height} fps_num={FPS} fps_den=1\n")


def _write(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _random_kinds(count: int, rng: random.Random) -> list:
    return [rng.choice(("cut", "fade")) for _ in range(count)]


def build_full_run(folder: str, seed: int, moods: dict) -> list:
    rng = random.Random(f"full_run:{seed}")
    pixels_rng = np.random.default_rng(rng.getrandbits(64))
    jobs = []
    for slot, (width, height, mood_name, tempo, units) in enumerate(FULL_RUN_SLOTS):
        shape = random.Random(f"full_run:slot{slot}")
        unit = unit_frames(moods[mood_name], tempo)
        count = shape.randint(2, min(4, units))
        scenes = scene_table([k * unit for k in split(units, count, shape)],
                             _random_kinds(count - 1, shape))
        total = units * unit
        name = f"clip{slot:02d}"
        write_clip(os.path.join(folder, name + ".rgb24"), width, height, scenes,
                   scene_colours(scenes, shape), pixels_rng)
        detections, records = detections_document(scenes, shape, rng)
        _write(os.path.join(folder, name + ".detections.json"), detections)
        melody = None
        if slot % 3 == 1:
            melody = name + ".motif.mid"
            _write(os.path.join(folder, melody), motif_smf(rng))
        jobs.append({
            "slot": slot,
            "source": name + ".rgb24",
            "detections": name + ".detections.json",
            "melody": melody,
            "mood": mood_name,
            "planner_mode": rng.choice(PLANNER_MODES),
            "complexity": rng.choice(COMPLEXITIES),
            "rng_seed": rng.getrandbits(32),
            "media_s": total / FPS,
            "truth": {
                "width": width, "height": height, "fps": [FPS, 1],
                "total_frames": total, "scenes": scenes, "records": records,
                "cuts": [s["start_frame"] for s in scenes if s["opens_with"] == "cut"],
                "fade_midpoints": [s["start_frame"] for s in scenes
                                   if s["opens_with"] == "fade-in"],
                "tempo": tempo, "unit_frames": unit,
            },
        })
    return jobs


def build_rescore(folder: str, seed: int, moods: dict) -> list:
    rng = random.Random(f"rescore:{seed}")
    jobs = []
    for slot, spec in enumerate(RESCORE_SLOTS):
        shape = random.Random(f"rescore:slot{slot}")
        mood = moods[spec["mood"]]
        options = exact_options(mood)
        _frames, tempo, _sig = options[(slot * 5) % len(options)]
        unit = unit_frames(mood, tempo)
        units = max(spec["scenes"], round(spec["target_s"] * FPS / unit))
        scenes = scene_table([k * unit for k in split(units, spec["scenes"], shape)],
                             _random_kinds(spec["scenes"] - 1, shape))
        total = units * unit
        name = f"video{slot:02d}"
        _write(os.path.join(folder, name + ".scenes.json"), scenes_document(scenes, total))
        detections, records = detections_document(scenes, shape, rng)
        _write(os.path.join(folder, name + ".detections.json"), detections)
        melody = None
        if spec["motif"]:
            melody = name + ".motif.mid"
            _write(os.path.join(folder, melody), motif_smf(rng))
        jobs.append({
            "slot": slot,
            "scenes": name + ".scenes.json",
            "detections": name + ".detections.json",
            "melody": melody,
            "mood": spec["mood"],
            "planner_mode": spec["planner_mode"],
            "complexity": spec["complexity"],
            "rng_seed": rng.getrandbits(32),
            "media_s": total / FPS,
            "truth": {"fps": [FPS, 1], "total_frames": total, "scenes": scenes,
                      "records": records, "tempo": tempo, "unit_frames": unit},
        })
    return jobs


def write_stem(path: str, frames: int, channels: int, rate: int, rng: random.Random) -> None:
    """A 16-bit PCM tone with a little noise, one phase offset per channel."""
    t = np.arange(frames, dtype=np.float64) / rate
    freq, amp = rng.uniform(110.0, 880.0), rng.uniform(4000.0, 9000.0)
    noise = np.random.default_rng(rng.getrandbits(64))
    columns = [amp * np.sin(2 * np.pi * freq * t + ch) + noise.normal(0, 200, frames)
               for ch in range(channels)]
    samples = np.rint(np.stack(columns, axis=1)).astype("<i2")
    with wave.open(path, "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(samples.tobytes())


def build_loop_mix(folder: str, seed: int, moods: dict) -> list:
    rng = random.Random(f"loop_mix:{seed}")
    jobs = []
    min_scene = FPS // 2
    for slot, (stems, stem_s, channels, rate, video_s, count) in enumerate(LOOP_MIX_SLOTS):
        shape = random.Random(f"loop_mix:slot{slot}")
        total = video_s * FPS
        sizes = [size + min_scene - 1 for size in split(total - count * (min_scene - 1), count, shape)]
        scenes = scene_table(sizes, _random_kinds(count - 1, shape))
        name = f"mix{slot:02d}"
        _write(os.path.join(folder, name + ".scenes.json"), scenes_document(scenes, total))
        os.makedirs(os.path.join(folder, name))
        ranks = list(range(1, stems + 1))
        rng.shuffle(ranks)
        frames = round(stem_s * rate)
        manifest = []
        for i, rank in enumerate(ranks):
            stem = f"{name}/stem{i}.wav"
            write_stem(os.path.join(folder, stem), frames, channels, rate, rng)
            manifest.append({"label": f"stem{i}", "path": f"stem{i}.wav", "activation_rank": rank})
        _write(os.path.join(folder, name, "stems.json"), json.dumps(manifest, indent=2) + "\n")
        jobs.append({
            "slot": slot,
            "scenes": name + ".scenes.json",
            "stems": name + "/stems.json",
            "media_s": total / FPS,
            "truth": {"fps": [FPS, 1], "total_frames": total, "scenes": scenes,
                      "rate": rate, "channels": channels, "stem_frames": frames,
                      "stems": stems, "samples": round(total / FPS * rate)},
        })
    return jobs


BUILDERS = {"full_run": build_full_run, "rescore": build_rescore, "loop_mix": build_loop_mix}


def ensure(cache_root: str, src_root: str, workload: str, seed: int) -> str:
    """Fixture folder for (workload, seed), generating it on a cache miss.

    A set is built in a temporary folder and renamed into place once its
    jobs.json is written, so an interrupted build is never reused.
    """
    target = os.path.join(cache_root, f"{workload}-{seed}")
    if os.path.isfile(os.path.join(target, "jobs.json")):
        os.utime(target)
        return target
    os.makedirs(cache_root, exist_ok=True)
    tmp = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        jobs = BUILDERS[workload](tmp, seed, read_moods(src_root))
        _write(os.path.join(tmp, "jobs.json"),
               json.dumps({"workload": workload, "seed": seed, "jobs": jobs}) + "\n")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(target, ignore_errors=True)
    os.rename(tmp, target)
    _evict(cache_root, workload)
    return target


def _evict(cache_root: str, workload: str) -> None:
    sets = [os.path.join(cache_root, name) for name in os.listdir(cache_root)
            if name.startswith(workload + "-") and ".tmp" not in name]
    sets.sort(key=os.path.getmtime, reverse=True)
    for stale in sets[KEEP_SETS:]:
        shutil.rmtree(stale, ignore_errors=True)
