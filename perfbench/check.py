"""Output checks against the generator's ground truth, independent of vidscore.

Each check returns a list of problems; an empty list means the artifact is
correct. The SMF and plan readers here are deliberately separate from the
program's own, so a bug shared by writer and reader cannot hide.
"""

from __future__ import annotations

import json
import wave

import numpy as np

PPQN = 480
TOLERANCE_S = 0.010  # the planner's fit tolerance, capped at half a frame
PEAK = round(32767.0 * 10 ** (-1.0 / 20.0))  # -1 dBFS in 16-bit full scale


def check_scenes(text: str, truth: dict) -> list:
    """Scene bounds and transition kinds, frame-exact."""
    doc = json.loads(text)
    problems = []
    if doc.get("total_frames") != truth["total_frames"]:
        problems.append(f"total_frames {doc.get('total_frames')} != {truth['total_frames']}")
    got = [(s["start_frame"], s["end_frame"], s["opens_with"], s["closes_with"])
           for s in doc.get("scenes", [])]
    want = [(s["start_frame"], s["end_frame"], s["opens_with"], s["closes_with"])
            for s in truth["scenes"]]
    if got != want:
        problems.append(f"scenes {got} != injected {want}")
    return problems


def parse_plan(text: str) -> dict:
    """plan.ini as {"composition": {...}, "sections": [{...}, ...]}."""
    blocks, order, current = {}, [], None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            current = line[1:-1].strip()
            blocks[current] = {}
            order.append(current)
            continue
        key, _, value = line.partition("=")
        blocks[current][key.strip()] = value.strip()
    sections = sorted((name for name in order if name.startswith("section")),
                      key=lambda name: int(name[len("section"):]))
    return {"composition": blocks.get("composition", {}),
            "sections": [blocks[name] for name in sections]}


def check_plan(text: str, job: dict, mood: dict) -> tuple:
    """Every section's realized duration, recomputed from its tempo and
    meter, lies within the fit tolerance of its scene.

    Returns (problems, sections) with sections as (tempo, (n, d), phrases).
    """
    plan = parse_plan(text)
    truth = job["truth"]
    num, den = truth["fps"]
    tolerance = min(TOLERANCE_S, den / num / 2.0)
    bars = mood.get("phrase_length_bars", 4)
    problems, sections = [], []
    comp = plan["composition"]
    for key, want in (("mood", job["mood"]), ("complexity", job["complexity"]),
                      ("seed", str(job["rng_seed"]))):
        if comp.get(key) != want:
            problems.append(f"plan {key} {comp.get(key)!r} != {want!r}")
    if len(plan["sections"]) != len(truth["scenes"]):
        return problems + [f"{len(plan['sections'])} sections for "
                           f"{len(truth['scenes'])} scenes"], sections
    lo, hi = mood["tempo_range"]
    signatures = {tuple(sig) for sig in mood["time_signatures"]}
    for i, (section, scene) in enumerate(zip(plan["sections"], truth["scenes"])):
        tempo = int(section["tempo"])
        n, d = (int(x) for x in section["time_sig"].split("/"))
        scene_s = (scene["end_frame"] - scene["start_frame"]) * den / num
        phrase_s = bars * n * (4.0 / d) * 60.0 / tempo
        phrases = round(scene_s / phrase_s)
        realized = phrases * phrase_s
        if not lo <= tempo <= hi or (n, d) not in signatures:
            problems.append(f"section {i}: {tempo} bpm {n}/{d} outside mood {job['mood']}")
        if phrases < 1 or abs(realized - scene_s) > tolerance:
            problems.append(f"section {i}: realizes {realized:.4f} s for a {scene_s:.4f} s scene")
        if abs(float(section["duration"]) - scene_s) > 1e-6:
            problems.append(f"section {i}: duration {section['duration']} != scene {scene_s}")
        sections.append((tempo, (n, d), phrases))
    if job["planner_mode"] == "global" and len({s[0] for s in sections}) > 1:
        problems.append("global plan uses more than one tempo")
    return problems, sections


def _vlq(data: bytes, pos: int) -> tuple:
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def read_smf(data: bytes) -> dict:
    """Header fields, track 0's tempo and meter changes, and each track's
    end-of-track tick."""
    if data[:4] != b"MThd":
        raise ValueError("missing MThd")
    header_len = int.from_bytes(data[4:8], "big")
    fmt, tracks, division = (int.from_bytes(data[8 + 2 * i:10 + 2 * i], "big") for i in range(3))
    pos = 8 + header_len
    out = {"format": fmt, "division": division, "tempos": [], "meters": [], "ends": []}
    for index in range(tracks):
        if data[pos:pos + 4] != b"MTrk":
            raise ValueError(f"missing MTrk {index}")
        end = pos + 8 + int.from_bytes(data[pos + 4:pos + 8], "big")
        pos += 8
        tick, running, end_tick = 0, None, None
        while pos < end:
            delta, pos = _vlq(data, pos)
            tick += delta
            status = data[pos]
            if status < 0x80:
                status = running
            else:
                pos += 1
            if status == 0xFF:
                kind = data[pos]
                length, pos = _vlq(data, pos + 1)
                payload = data[pos:pos + length]
                pos += length
                if index == 0 and kind == 0x51:
                    out["tempos"].append((tick, int.from_bytes(payload, "big")))
                elif index == 0 and kind == 0x58:
                    out["meters"].append((tick, payload[0], 2 ** payload[1]))
                elif kind == 0x2F:
                    end_tick = tick
            elif status in (0xF0, 0xF7):
                length, pos = _vlq(data, pos)
                pos += length
            else:
                running = status
                pos += 1 if status & 0xF0 in (0xC0, 0xD0) else 2
        if end_tick is None:
            raise ValueError(f"track {index} has no end-of-track")
        out["ends"].append(end_tick)
        pos = end
    return out


def check_midi(data: bytes, sections: list, mood: dict, video_s: float) -> list:
    """Type 1 at 480 PPQN, one tempo and one meter change at each section
    start, and a length within one tick (at the slowest tempo) of the video,
    or of the music when whole phrases overrun the video."""
    try:
        smf = read_smf(data)
    except (ValueError, IndexError) as exc:
        return [f"unreadable SMF: {exc}"]
    problems = []
    if smf["format"] != 1 or smf["division"] != PPQN:
        problems.append(f"SMF format {smf['format']} division {smf['division']}")
    bars = mood.get("phrase_length_bars", 4)
    starts, tick, realized = [], 0, 0.0
    for tempo, (n, d), phrases in sections:
        starts.append(tick)
        length = phrases * bars * n * PPQN * 4 // d
        tick += length
        realized += length * 60.0 / (tempo * PPQN)
    want_tempos = [(s, round(60_000_000 / t)) for s, (t, _, _) in zip(starts, sections)]
    want_meters = [(s, n, d) for s, (_, (n, d), _) in zip(starts, sections)]
    if smf["tempos"] != want_tempos:
        problems.append(f"tempo changes {smf['tempos'][:4]}... != {want_tempos[:4]}...")
    if smf["meters"] != want_meters:
        problems.append(f"meter changes {smf['meters'][:4]}... != {want_meters[:4]}...")
    if problems:
        return problems
    total = max(smf["ends"])
    seconds = 0.0
    for i, (start, micros) in enumerate(smf["tempos"]):
        stop = smf["tempos"][i + 1][0] if i + 1 < len(smf["tempos"]) else total
        seconds += (stop - start) * micros / 1e6 / PPQN
    tick_s = 60.0 / (min(t for t, _, _ in sections) * PPQN)
    expected = max(video_s, realized)
    if abs(seconds - expected) > tick_s:
        problems.append(f"MIDI lasts {seconds:.5f} s, expected {expected:.5f} s")
    return problems


def check_wav(path: str, truth: dict) -> list:
    """Length round(video_s * rate), the stems' format, peak at -1 dBFS."""
    with wave.open(path, "rb") as wav:
        form = (wav.getsampwidth(), wav.getnchannels(), wav.getframerate(), wav.getnframes())
        peak = 0
        while True:
            chunk = wav.readframes(1 << 16)
            if not chunk:
                break
            samples = np.frombuffer(chunk, dtype="<i2")
            peak = max(peak, int(np.abs(samples.astype(np.int32)).max()))
    want = (2, truth["channels"], truth["rate"], truth["samples"])
    problems = []
    if form != want:
        problems.append(f"WAV (width, channels, rate, frames) {form} != {want}")
    if peak != PEAK:
        problems.append(f"WAV peak {peak} != -1 dBFS ({PEAK})")
    return problems
