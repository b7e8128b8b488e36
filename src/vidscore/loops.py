"""Loop-based soundtrack mode: layered stems ramping to a mid-video peak.

The stem activation count climbs by one per scene from the first scene,
peaks at the middle scene (both middle scenes for even counts) and descends
symmetrically. Stems join in activation_rank order and drop out in reverse.
Each active stem restarts from its first sample at every scene boundary, so
a downbeat always lands on the transition, and is truncated at the scene end.
The summed mix is peak-normalized to -1 dBFS.

The mix is never held whole. ``mix_stems`` records the frames over which each
stem loops and sums the track block by block, in one reused int32 buffer, to
find the peak. ``write_wav`` then sums each block again, normalizes it into
a reused int16 buffer and writes it, so memory is the stems (an int16 and an
int32 copy of each) plus a few block buffers, whatever the track length.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, EmptyInputError, StemMismatchError
from .files import publish, read_json
from .scenes import Scene

PEAK_CEILING = 10 ** (-1.0 / 20.0)  # -1 dBFS as a fraction of full scale
_BLOCK = 1 << 16  # frames summed and normalized per step of the mix


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


Run = Tuple[int, int, np.ndarray]  # a stem looped from frame start up to frame end


class Mix:
    """A normalized int16 track of ``shape`` (frames, channels), produced one
    block at a time by ``blocks``; ``size`` is frames x channels."""

    def __init__(self, frames: int, channels: int, runs: List[Run]):
        self.shape = (frames, channels)
        self.size = frames * channels
        self._runs = sorted(runs, key=itemgetter(0))
        peak = 0
        for block in self._sums():
            peak = max(peak, int(block.max()), -int(block.min()))
        self._gain = PEAK_CEILING * 32767.0 / peak if peak else 0.0

    def __len__(self) -> int:
        return self.shape[0]

    def _sums(self) -> Iterator[np.ndarray]:
        """Yield the int32 sum of each block of ``_BLOCK`` frames. Every block
        is the same reused buffer, valid until the next one is yielded."""
        frames, channels = self.shape
        buf = np.empty((min(_BLOCK, frames), channels), dtype=np.int32)
        pending = iter(self._runs)
        upcoming = next(pending, None)
        active: List[Run] = []
        for first in range(0, frames, _BLOCK):
            last = min(first + _BLOCK, frames)
            while upcoming is not None and upcoming[0] < last:
                active.append(upcoming)
                upcoming = next(pending, None)
            block = buf[:last - first]
            block.fill(0)
            for start, end, samples in active:
                lo, hi = max(start, first), min(end, last)
                period = len(samples)
                # each loop period overlapping [lo, hi), from the one holding lo
                for pos in range(lo - (lo - start) % period, hi, period):
                    a, b = max(pos, lo), min(pos + period, hi)
                    block[a - first:b - first] += samples[a - pos:b - pos]
            active = [run for run in active if run[1] > last]
            yield block

    def blocks(self) -> Iterator[np.ndarray]:
        """Yield the normalized track as ``<i2`` blocks of ``_BLOCK`` frames
        (the last may be shorter). Every block is the same reused buffer,
        valid until the next one is yielded."""
        frames, channels = self.shape
        scaled = np.empty((min(_BLOCK, frames), channels), dtype=np.float64)
        out = np.empty(scaled.shape, dtype="<i2")
        for block in self._sums():
            buf, res = scaled[:len(block)], out[:len(block)]
            np.multiply(block, self._gain, out=buf)
            # clipping first gives the same values as rounding first: the
            # bounds are whole numbers
            np.clip(buf, -32768, 32767, out=buf)
            np.rint(buf, out=res, casting="unsafe")
            yield res


def mix_stems(
    schedule: LayerSchedule, scenes: Sequence[Scene], stems: Sequence[Stem]
) -> Mix:
    """Mix the scheduled stems into one int16 track covering the video."""
    if len(schedule) != len(scenes):
        raise EmptyInputError("schedule does not cover every scene")
    _check_compatible(stems)
    by_label: Dict[str, Stem] = {stem.label: stem for stem in stems}
    rate = stems[0].sample_rate
    wide: Dict[str, np.ndarray] = {}  # each scheduled stem, widened to int32 once

    runs: List[Run] = []
    for scene, active in zip(scenes, schedule):
        start = round(scene.start_s * rate)
        end = round(scene.end_s * rate)
        if end <= start:
            continue
        for label in active:
            if label not in wide:
                wide[label] = by_label[label].samples.astype(np.int32)
            runs.append((start, end, wide[label]))  # looped from sample 0, cut at end
    return Mix(round(scenes[-1].end_s * rate), stems[0].channels, runs)


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


def write_wav(path: str, samples: Union[Mix, np.ndarray], sample_rate: int) -> None:
    """Write 16-bit PCM, block by block from a ``Mix``, or in one piece from an
    int16 array (a C-contiguous ``<i2`` array is written uncopied). A failure
    between blocks leaves ``path`` as it was."""
    if isinstance(samples, Mix):
        blocks = samples.blocks()
    else:
        samples = np.ascontiguousarray(samples, dtype="<i2")
        if samples.ndim == 1:
            samples = samples[:, np.newaxis]
        blocks = [samples]
    with publish(path, binary=True) as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(samples.shape[1])
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        for block in blocks:
            wav.writeframesraw(block.reshape(-1))  # flat, so an empty block casts too


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
