"""Shared fixture builders for synthetic videos, stats streams and plans."""

import io
import random
import shlex
import shutil
import sysconfig
import wave
from fractions import Fraction

import numpy as np
import pytest

from vidscore import frames
from vidscore.composer import PPQN
from vidscore.energy import EnergyLabel
from vidscore.frames import HUE_SCALE
from vidscore.loops import PEAK_CEILING, Copy
from vidscore.moods import LayerDef, MoodConfig, Scale, load_mood
from vidscore.planner import CompositionPlan, SectionSpec, phrase_seconds
from vidscore.scenes import FrameSpec, FrameStats

CC = shlex.split(sysconfig.get_config_var("CC") or "")
needs_cc = pytest.mark.skipif(not CC or shutil.which(CC[0]) is None,
                              reason="no C compiler on the path")


@pytest.fixture(scope="session")
def plain_kernel(tmp_path_factory):
    """The compiled frame pass built with its run-time choice of an AVX2
    body compiled out, so that a CPU with AVX2 runs the plain body too.
    Tests that take it are marked ``needs_cc``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "_CFLAGS", frames._CFLAGS + ("-DFRAMESTATS_PLAIN",))
        kernel = frames._build(frames._SOURCE, str(tmp_path_factory.mktemp("plain")))
    assert kernel is not None
    return kernel


def make_mood(
    tempo_range=(60, 120),
    signatures=((4, 4),),
    phrase_bars=4,
    layers_per_energy=None,
    name="testmood",
):
    return MoodConfig(
        name=name,
        tempo_range=tempo_range,
        time_signatures=tuple(signatures),
        phrase_length_bars=phrase_bars,
        layers_per_energy=layers_per_energy
        or {"low": (1, 3), "medium": (2, 4), "high": (3, 5)},
        scale=Scale("C", "major"),
        progressions={
            "simple": [[1, 4, 5, 1]],
            "semi-complex": [[1, 5, 6, 4]],
            "complex": [[1, 3, 6, 2, 5, 1, 4, 5]],
        },
        instrument_layers=(
            LayerDef("bass", 1, (36, 55), "sparse"),
            LayerDef("pad", 2, (48, 72), "sparse"),
            LayerDef("chords", 3, (52, 76), "medium"),
            LayerDef("melody", 4, (64, 88), "medium"),
            LayerDef("arpeggio", 5, (57, 81), "dense"),
        ),
    )


def solid_frame(width, height, rgb):
    return bytes(rgb) * (width * height)


def write_ppm(path, width, height, pixels):
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(pixels)


def rgb_to_hsv(pixel):
    """Scalar oracle for the vectorized per-frame conversion: one RGB pixel
    to HSV with every channel scaled to [0, 255].

    Hue comes from the standard hexagonal model rescaled so the full circle is
    256 units; achromatic pixels get hue 0.
    """
    r, g, b = pixel
    v = float(max(r, g, b))
    m = float(min(r, g, b))
    c = v - m
    s = 0.0 if v == 0 else c / v * 255.0
    if c == 0:
        h6 = 0.0
    elif v == r:
        h6 = ((g - b) / c) % 6.0
    elif v == g:
        h6 = (b - r) / c + 2.0
    else:
        h6 = (r - g) / c + 4.0
    return (h6 * (HUE_SCALE / 6.0), s, v)


def float32_hsv(pixels):
    """``rgb_to_hsv`` over an (n, 3) uint8 array, vectorised in float32, as
    the per-frame statistics take it: hue and saturation float32 arrays and
    value as integers."""
    r, g, b = np.asarray(pixels, dtype=np.float32).T
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)
    s = c / np.maximum(v, np.float32(1.0)) * np.float32(255.0)
    safe_c = np.maximum(c, np.float32(1.0))  # where c is 0 the hue is 0 anyway
    h6 = np.select(
        [c == 0, v == r, v == g],
        [np.float32(0.0), ((g - b) / safe_c) % np.float32(6.0), (b - r) / safe_c + np.float32(2.0)],
        (r - g) / safe_c + np.float32(4.0))
    return h6 * np.float32(256.0 / 6.0), s, v.astype(np.int64)


def exact_sum(values):
    """The exact sum of an array of floats, as a Fraction: each distinct
    value's integer ratio times its count, over one power-of-two denominator."""
    distinct, counts = np.unique(values, return_counts=True)
    ratios = [x.as_integer_ratio() for x in distinct.tolist()]
    den = max(d for _, d in ratios)
    return Fraction(sum(num * (den // d) * k for (num, d), k in zip(ratios, counts.tolist())),
                    den)


def exact_frame_stats(frames):
    """``(avg_intensity, hsv_delta)`` of each frame, built from ``float32_hsv``
    alone: every sum exact and every mean rounded once."""
    stats, prev = [], None
    for frame in frames:
        pixels = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(-1, 3)
        n = len(pixels)
        hsv = float32_hsv(pixels)
        delta = None
        if prev is not None:
            dh = np.abs(hsv[0] - prev[0])
            dh = np.minimum(dh, np.float32(256.0) - dh)
            means = [float(exact_sum(dh) / n), float(exact_sum(np.abs(hsv[1] - prev[1])) / n),
                     float(Fraction(int(np.abs(hsv[2] - prev[2]).sum()), n))]
            delta = (means[0] + means[1] + means[2]) / 3.0
        stats.append((float(Fraction(int(pixels.sum(dtype=np.int64)), 3 * n)), delta))
        prev = hsv
    return stats


def wave_bytes(track, rate):
    """What ``wave`` writes for an int16 track of (frames, channels), or of
    frames alone for mono: the reference every written WAV is checked
    against."""
    assert track.dtype == np.int16
    out = io.BytesIO()
    with wave.open(out, "wb") as wav:
        wav.setnchannels(1 if track.ndim == 1 else track.shape[1])
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(track.tobytes())
    return out.getvalue()


def write_wave(path, track, rate):
    """Write ``track`` to ``path`` as ``wave`` writes it: how tests make stems."""
    with open(path, "wb") as fh:
        fh.write(wave_bytes(track, rate))


def mixed_track(mix):
    """The whole int16 track of a ``mix_stems`` result, gathered from its
    blocks (each is copied out: the mix reuses one buffer for all of them),
    with each copy piece filled from the track gathered so far."""
    track = np.empty(mix.shape, dtype=np.int16)
    first = 0
    for block in mix.blocks():
        if isinstance(block, Copy):
            assert block.src < block.lo == first
            span = np.arange(block.hi - block.lo)
            track[block.lo:block.hi] = track[block.src + span % (block.lo - block.src)]
            first = block.hi
            continue
        track[first:first + len(block)] = block
        first += len(block)
    assert first == mix.shape[0]
    return track


def naive_mix_stems(schedule, scenes, stems):
    """Oracle for the block mixer: tile each stem over its scene, sum the
    whole track in int32 and normalize it in one float64 pass."""
    by_label = {stem.label: stem for stem in stems}
    rate = stems[0].sample_rate
    channels = stems[0].channels

    total_samples = round(scenes[-1].end_s * rate)
    mix = np.zeros((total_samples, channels), dtype=np.int32)

    for scene, active in zip(scenes, schedule):
        start = round(scene.start_s * rate)
        end = round(scene.end_s * rate)
        span = end - start
        if span <= 0:
            continue
        for label in active:
            stem = by_label[label]
            length = len(stem.samples)
            reps = -(-span // length)  # loop from sample 0, truncate at the boundary
            tiled = np.tile(stem.samples, (reps, 1))[:span]
            mix[start:end] += tiled.astype(np.int32)

    peak = int(np.max(np.abs(mix))) if total_samples else 0
    if peak > 0:
        target = PEAK_CEILING * 32767.0
        scaled = mix.astype(np.float64) * (target / peak)
        return np.clip(np.rint(scaled), -32768, 32767).astype(np.int16)
    return mix.astype(np.int16)


def color_delta(a, b):
    """Single-color HSV delta straight from the per-pixel conversion."""
    ha, sa, va = rgb_to_hsv(a)
    hb, sb, vb = rgb_to_hsv(b)
    dh = abs(ha - hb)
    dh = min(dh, 256.0 - dh)
    return (dh + abs(sa - sb) + abs(va - vb)) / 3.0


def gray_ramp(level, steps):
    """Equal intensity steps from an achromatic level down toward black."""
    return [
        (round(level * k / steps),) * 3 for k in range(steps - 1, 0, -1)
    ]


class VideoBuilder:
    """Assembles a raw RGB24 fixture and tracks the frames appended."""

    def __init__(self, width=64, height=36, fps=(30, 1)):
        self.width = width
        self.height = height
        self.fps = fps
        self.colors = []

    def add_run(self, rgb, frames):
        self.colors.extend([rgb] * frames)
        return self

    def add_fade(self, level=180, ramp_steps=10, black_frames=6):
        """Gentle achromatic dip to black and back; no step trips the cut
        detector, and exactly the black frames sit under the fade threshold."""
        for rgb in gray_ramp(level, ramp_steps):
            self.colors.append(rgb)
        self.colors.extend([(0, 0, 0)] * black_frames)
        for rgb in reversed(gray_ramp(level, ramp_steps)):
            self.colors.append(rgb)
        return self

    @property
    def total_frames(self):
        return len(self.colors)

    @property
    def spec(self):
        return FrameSpec(self.width, self.height, self.fps[0], self.fps[1])

    def intensities(self):
        return [(r + g + b) / 3.0 for r, g, b in self.colors]

    def deltas(self):
        return [None] + [
            color_delta(a, b) for a, b in zip(self.colors, self.colors[1:])
        ]

    def expected_cuts(self, threshold=30.0, min_scene_frames=15):
        """Linear-scan oracle over the constructed per-frame deltas."""
        cuts = []
        for i, delta in enumerate(self.deltas()):
            if delta is not None and delta >= threshold:
                if cuts and i - cuts[-1] < min_scene_frames:
                    continue
                cuts.append(i)
        return cuts

    def expected_fades(self, threshold=12.0):
        """Linear-scan oracle over the constructed per-frame intensities."""
        fades = []
        start = None
        values = self.intensities()
        for i, value in enumerate(values):
            if start is None:
                if value < threshold:
                    start = i
            elif value >= threshold:
                fades.append((start, i))
                start = None
        if start is not None:
            fades.append((start, len(values) - 1))
        return fades

    def write(self, directory, name="vid"):
        path = directory / f"{name}.rgb24"
        with open(path, "wb") as fh:
            for rgb in self.colors:
                fh.write(solid_frame(self.width, self.height, rgb))
        (directory / f"{name}.hdr").write_text(
            f"width={self.width} height={self.height} "
            f"fps_num={self.fps[0]} fps_den={self.fps[1]}\n"
        )
        return str(path)


# scene colors alternating chroma and achroma so every cut lands well above
# the default threshold (pure hue flips alone stay under it)
CUT_SAFE_COLORS = [
    (220, 40, 40),
    (245, 245, 245),
    (40, 40, 220),
    (120, 120, 120),
    (40, 220, 40),
    (235, 235, 235),
]


def make_stats(intensities, deltas=None):
    if deltas is None:
        deltas = [None] + [0.0] * (len(intensities) - 1)
    return [
        FrameStats(index=i, avg_intensity=v, hsv_delta=d)
        for i, (v, d) in enumerate(zip(intensities, deltas))
    ]


def random_valid_plan(rng: random.Random, mood=None) -> CompositionPlan:
    """A plan whose section durations are exactly realizable by construction."""
    mood = mood or load_mood(rng.choice(
        ["inspire", "ember", "drive", "bloom", "noir", "tide", "summit", "clockwork"]
    ))
    count = rng.randint(1, 5)
    sections = []
    for sid in range(count):
        tempo = rng.randint(*mood.tempo_range)
        signature = rng.choice(sorted(mood.time_signatures))
        phrases = rng.randint(1, 4)
        duration = phrases * phrase_seconds(tempo, signature, mood.phrase_length_bars)
        sections.append(
            SectionSpec(
                section_id=sid,
                time_signature=signature,
                tempo=tempo,
                energy=rng.choice(list(EnergyLabel)),
                duration_s=duration,
                phrases=phrases,
                direction=rng.choice(["up", "down"]),
                slope=rng.choice(["stay", "gradual", "steep"]),
            )
        )
    return CompositionPlan(
        total_duration_s=sum(s.duration_s for s in sections),
        mood=mood.name,
        complexity=rng.choice(["simple", "semi-complex", "complex"]),
        rng_seed=rng.getrandbits(32),
        sections=tuple(sections),
    )


# -- readers over a score and a parsed SMF document -----------------------------

DEFAULT_TEMPO_US = 500000  # 120 BPM, the SMF default before any tempo meta


def score_duration_s(score):
    """Integrate a score's tempo map over its full tick span."""
    total = 0.0
    for i, (tick, bpm) in enumerate(score.tempo_map):
        end = score.tempo_map[i + 1][0] if i + 1 < len(score.tempo_map) else score.total_ticks
        total += (end - tick) * 60.0 / (bpm * PPQN)
    return total


def track_name(track):
    for ev in track.events:
        if ev.kind == "track_name":
            return ev.data.decode("utf-8", "replace")
    return ""


def doc_notes(doc):
    """Every track's notes, ordered by (tick, channel, pitch)."""
    out = [note for track in doc.tracks for note in doc.track_notes(track)]
    out.sort(key=lambda n: (n.tick, n.channel, n.pitch))
    return out


def doc_tempos(doc):
    """(tick, microseconds per quarter) across all tracks, tick-ordered."""
    return sorted((ev.tick, ev.data1) for track in doc.tracks
                  for ev in track.events if ev.kind == "tempo")


def doc_time_signatures(doc):
    return sorted((ev.tick, (ev.data1, 1 << ev.data2)) for track in doc.tracks
                  for ev in track.events if ev.kind == "time_signature")


def doc_duration_s(doc):
    """Integrate the tempo map over the document's tick span."""
    total_ticks = max((t.end_tick for t in doc.tracks), default=0)
    tempos = doc_tempos(doc)
    if not tempos or tempos[0][0] > 0:
        tempos = [(0, DEFAULT_TEMPO_US)] + tempos
    seconds = 0.0
    for i, (tick, us) in enumerate(tempos):
        end = tempos[i + 1][0] if i + 1 < len(tempos) else total_ticks
        seconds += (end - tick) * us / (doc.ppqn * 1_000_000.0)
    return seconds


@pytest.fixture
def inspire():
    return load_mood("inspire")
