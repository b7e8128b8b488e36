"""Loop-based soundtrack mode: layered stems ramping to a mid-video peak.

The stem activation count climbs by one per scene from the first scene,
peaks at the middle scene (both middle scenes for even counts) and descends
symmetrically. Stems join in activation_rank order and drop out in reverse.
Each active stem restarts from its first sample at every scene boundary, so
a downbeat always lands on the transition, and is truncated at the scene end.
The summed mix is peak-normalized to -1 dBFS.
"""

from __future__ import annotations

import json
import os
import wave
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, StemMismatchError
from .scenes import Scene

PEAK_CEILING = 10 ** (-1.0 / 20.0)  # -1 dBFS as a fraction of full scale


@dataclass(frozen=True)
class Stem:
    label: str
    samples: np.ndarray  # int16, shape (frames, channels)
    sample_rate: int
    activation_rank: int

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


LayerSchedule = List[List[str]]  # per-scene active stem labels


def build_layer_schedule(scenes: Sequence[Scene], stems: Sequence[Stem]) -> LayerSchedule:
    """Unimodal activation ramp peaking at the middle scene(s)."""
    if not scenes:
        raise EmptyInputError("no scenes")
    if not stems:
        raise EmptyInputError("no stems")
    ordered = sorted(stems, key=lambda s: s.activation_rank)
    n = len(scenes)
    schedule: LayerSchedule = []
    for i in range(n):
        count = 1 + min(i, n - 1 - i)
        count = max(1, min(count, len(ordered)))
        schedule.append([stem.label for stem in ordered[:count]])
    return schedule


def _check_compatible(stems: Sequence[Stem]) -> None:
    rates = {stem.sample_rate for stem in stems}
    channels = {stem.channels for stem in stems}
    if len(rates) > 1 or len(channels) > 1:
        raise StemMismatchError(
            f"stems disagree on format: rates {sorted(rates)}, channels {sorted(channels)}"
        )


def mix_stems(
    schedule: LayerSchedule, scenes: Sequence[Scene], stems: Sequence[Stem]
) -> np.ndarray:
    """Mix the scheduled stems into one int16 track covering the video."""
    if len(schedule) != len(scenes):
        raise EmptyInputError("schedule does not cover every scene")
    _check_compatible(stems)
    by_label: Dict[str, Stem] = {stem.label: stem for stem in stems}
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


# -- WAV and manifest plumbing ---------------------------------------------------

def read_wav(path: str) -> tuple[np.ndarray, int]:
    """16-bit PCM RIFF reader returning (frames x channels int16, rate)."""
    try:
        with wave.open(path, "rb") as wav:
            if wav.getsampwidth() != 2:
                raise StemMismatchError(f"{path}: only 16-bit PCM stems are supported")
            channels = wav.getnchannels()
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        raise StemMismatchError(f"{path}: not a PCM WAV file: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)
    if len(samples) == 0:
        raise StemMismatchError(f"{path}: stem has no samples")
    return samples, rate


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    if samples.ndim == 1:
        samples = samples[:, np.newaxis]
    with wave.open(path, "wb") as wav:
        wav.setnchannels(samples.shape[1])
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(samples.astype("<i2").tobytes())


def load_stem_manifest(path: str) -> List[Stem]:
    """Manifest: JSON list of {label, path, activation_rank} with unique
    labels; relative stem paths resolve against the manifest's directory."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read stem manifest {path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    stems = []
    try:
        for entry in entries:
            stem_path = entry["path"]
            if not os.path.isabs(stem_path):
                stem_path = os.path.join(base, stem_path)
            samples, rate = read_wav(stem_path)
            stems.append(
                Stem(
                    label=entry["label"],
                    samples=samples,
                    sample_rate=rate,
                    activation_rank=int(entry["activation_rank"]),
                )
            )
        labels = [stem.label for stem in stems]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"stem manifest {path} repeats a label: {labels}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad stem manifest entry: {exc}") from exc
    if not stems:
        raise ConfigError(f"stem manifest {path} lists no stems")
    return stems
