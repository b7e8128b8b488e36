"""Loop-based soundtrack mode: layered stems ramping to a mid-video peak.

The stem activation count climbs by one per scene from the first scene,
peaks at the middle scene (both middle scenes for even counts) and descends
symmetrically. Stems join in activation_rank order and drop out in reverse.
Each active stem restarts from its first sample at every scene boundary, so
a downbeat always lands on the transition, and is truncated at the scene end.
The summed mix is peak-normalized to -1 dBFS.

The mix is built in one int32 buffer: each stem is added in place, one loop
period at a time. It is then normalized block by block, and each block's
int16 result is written into the front of that same buffer, so the only
track-sized allocation is the int32 mix.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, StemMismatchError
from .files import publish, read_json
from .scenes import Scene

PEAK_CEILING = 10 ** (-1.0 / 20.0)  # -1 dBFS as a fraction of full scale
_NORMALIZE_BLOCK = 1 << 16  # frames scaled per step of the normalization


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
        for label in active:
            samples = by_label[label].samples
            # loop from sample 0, truncate at the boundary
            for pos in range(start, end, len(samples)):
                n = min(len(samples), end - pos)
                mix[pos:pos + n] += samples[:n]

    # The int16 track is the front of the int32 buffer. A block ending at row
    # e writes its int16 output up to byte 2*e*channels, before the next
    # block's int32 input starts at byte 4*e*channels, so no block overwrites
    # input that is still to be read.
    out = mix.reshape(-1).view(np.int16)[:mix.size].reshape(mix.shape)
    peak = max(int(mix.max()), -int(mix.min())) if total_samples else 0
    if peak > 0:
        target = PEAK_CEILING * 32767.0
        gain = target / peak
        scaled = np.empty((min(_NORMALIZE_BLOCK, total_samples), channels), dtype=np.float64)
        for first in range(0, total_samples, _NORMALIZE_BLOCK):
            block = mix[first:first + _NORMALIZE_BLOCK]
            buf = scaled[:len(block)]
            np.multiply(block, gain, out=buf)
            np.rint(buf, out=buf)
            np.clip(buf, -32768, 32767, out=buf)
            out[first:first + len(block)] = buf
    # a silent mix is all zeros, which reads as zeros through the view too
    return out


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
    except (OSError, wave.Error, EOFError, RuntimeError) as exc:
        # wave raises a bare RuntimeError for a chunk that runs past the end
        raise StemMismatchError(f"{path}: cannot read a PCM WAV file: {exc}") from exc
    if len(raw) % (2 * channels):
        raise StemMismatchError(f"{path}: data ends in a partial frame")
    samples = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)
    if len(samples) == 0:
        raise StemMismatchError(f"{path}: stem has no samples")
    return samples, rate


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Write 16-bit PCM; a C-contiguous ``<i2`` array is written uncopied."""
    samples = np.ascontiguousarray(samples, dtype="<i2")
    if samples.ndim == 1:
        samples = samples[:, np.newaxis]
    with publish(path, binary=True) as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(samples.shape[1])
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(samples)


def load_stem_manifest(path: str) -> List[Stem]:
    """Manifest: JSON list of {label, path, activation_rank} with unique
    labels; relative stem paths resolve against the manifest's directory."""
    entries = read_json(path, ConfigError, "stem manifest", kind=list)
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
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad stem manifest entry: {exc}") from exc
    if not stems:
        raise ConfigError(f"stem manifest {path} lists no stems")
    return stems
