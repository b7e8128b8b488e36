"""Loop-based soundtrack mode: layered stems ramping to a mid-video peak.

The stem activation count climbs by one per scene from the first scene,
peaks at the middle scene (both middle scenes for even counts) and descends
symmetrically. Stems join in activation_rank order and drop out in reverse.
Each active stem restarts from its first sample at every scene boundary, so
a downbeat always lands on the transition, and is truncated at the scene end.
The summed mix is peak-normalized to -1 dBFS.

The mix is never held whole. ``mix_stems`` refuses a track a WAV cannot
hold, then records, scene by scene, the frames a scene covers and the stems
that loop over them. Inside a scene every stem restarts at the scene's first
frame, so the scene's sum repeats every lcm of its stems' lengths, and a stem
set over a shorter scene is a prefix of the same set over a longer one.
``Mix`` plans the track once as ordered pieces: a sum piece is a stretch no
earlier frame holds, and a copy piece repeats frames the track already has.
The exact peak is found by summing the sum pieces, in blocks through one
int32 buffer the mix keeps. ``write_wav`` writes a ``Mix`` and nothing else:
the WAV header once, with its final sizes, then each sum piece summed again,
normalized a block at a time into a reused int16 buffer and written, and
each copy piece straight from a read-only mapping of the frames it repeats
in the file being written, many repeats to a ``writev`` call. The int16
stems are summed straight into the int32 block, so memory is the int16
stems plus a few block buffers and a mapping of at most ``_WINDOW`` frames,
whatever the track length.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, EmptyInputError, MalformedSourceError, StemMismatchError
from .files import publish, read_json, typed
from .scenes import Scene

PEAK_CEILING = 10 ** (-1.0 / 20.0)  # -1 dBFS as a fraction of full scale
_BLOCK = 1 << 16  # frames summed and normalized per step of the mix
# most frames one mapping of a copy piece's source spans, 6.8 s at 48 kHz: a
# longer repeat is mapped a window at a time. A whole number of blocks, so
# each window after the first starts on a page boundary.
_WINDOW = 5 * _BLOCK
# a mapping is read whole at once, so its pages are faulted in as it is made
# where the platform can
_MAP_FLAGS = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
# each repeat of a copy piece is one buffer of a writev call: the fewer the
# calls, the fewer the writes that end mid-page
_IOV_MAX = os.sysconf("SC_IOV_MAX")
_HEADER = struct.Struct("<4sL4s4sLHHLLHH4sL")  # the 44-byte WAV header wave writes
# the WAV header holds the byte rate, the data size and the RIFF size (36 bytes
# of header plus the data) each in an unsigned 32-bit field
_WAV_FIELD_MAX = 0xFFFFFFFF


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
        count = min(1 + min(i, n - 1 - i), len(ordered))
        schedule.append([stem.label for stem in ordered[:count]])
    return schedule


def _check_compatible(stems: Sequence[Stem]) -> None:
    rates = {stem.sample_rate for stem in stems}
    channels = {stem.channels for stem in stems}
    if len(rates) > 1 or len(channels) > 1:
        raise StemMismatchError(
            f"stems disagree on format: rates {sorted(rates)}, channels {sorted(channels)}"
        )


Run = Tuple[int, int, List[np.ndarray]]  # one scene's stems, looped from frame start to end
Sum = Tuple[int, int, int, List[np.ndarray]]  # frames [lo, hi) of stems looped from start


class Copy(NamedTuple):
    """Frames [lo, hi) of the track repeat earlier ones: frame f holds frame
    ``src + (f - lo) % (lo - src)``, which lies before lo."""

    src: int
    lo: int
    hi: int


Piece = Union[Sum, Copy]


def _plan(frames: int, runs: List[Run]) -> List[Piece]:
    """The track in order as sum and copy pieces, given runs in frame order
    that do not overlap.

    A run's stems all restart at its start, so their sum repeats every lcm
    of their lengths: past its first period a scene is a copy of itself. A
    stem multiset over a shorter scene is a prefix of the same multiset over
    a longer one, so a scene copies what an earlier scene of its multiset
    wrote and sums only the part of its period that reaches past the longest
    such scene. The frames no scene covers sum to zero."""
    written: Dict[Tuple[int, ...], Tuple[int, int]] = {}  # multiset -> (scene start, frames)
    plan: List[Piece] = []
    reached = 0
    for start, end, stems in runs:
        if start > reached:
            plan.append((reached, start, reached, []))
        key = tuple(sorted(map(id, stems)))  # the same stem arrays, repeats included
        span = min(end - start, math.lcm(*map(len, stems)))
        src, have = written.get(key, (start, 0))
        if have:
            plan.append(Copy(src, start, start + min(have, span)))
        if span > have:
            plan.append((start + have, start + span, start, stems))
            written[key] = start, span
        if end > start + span:
            plan.append(Copy(start, start + span, end))
        reached = end
    if frames > reached:
        plan.append((reached, frames, reached, []))
    return plan


def _block_sums(piece: Sum, buf: np.ndarray) -> Iterator[np.ndarray]:
    """Yield, in order, the int32 sum of the sum piece ``piece`` over blocks
    of at most ``_BLOCK`` frames, each a view of ``buf`` valid until the next
    one is yielded. ``buf`` holds at least as many frames as a block."""
    lo, hi, start, stems = piece
    for first in range(lo, hi, _BLOCK):
        last = min(first + _BLOCK, hi)
        block = buf[:last - first]
        if not stems:
            block.fill(0)  # silence, which no scene covers
        for i, samples in enumerate(stems):
            period = len(samples)
            # each loop period overlapping [first, last), from the one holding first;
            # the first stem's periods tile the block, since every stem covers the piece
            for pos in range(first - (first - start) % period, last, period):
                a, b = max(pos, first), min(pos + period, last)
                if i:
                    block[a - first:b - first] += samples[a - pos:b - pos]
                else:
                    block[a - first:b - first] = samples[a - pos:b - pos]
        yield block


class Mix:
    """A normalized int16 track of ``shape`` (frames, channels), produced in
    order by ``blocks``; ``size`` is frames x channels. The runs must be
    in frame order and must not overlap, as the runs of tiling scenes do.

    The track is planned once, as ``_plan`` lays it out: only the sum pieces
    are ever summed, through ``_block_sums`` into one int32 buffer as wide
    as the widest of them, at most ``_BLOCK`` frames. Their union holds
    every value the track takes, so the gain maps the int32 sum's exact peak
    over them to -1 dBFS and no sample needs clipping. ``buffer`` is the
    int16 block buffer that every normalized block is written into, and
    that ``write_wav`` tiles a copy piece's short repeat into."""

    def __init__(self, frames: int, channels: int, runs: List[Run]):
        self.shape = (frames, channels)
        self.size = frames * channels
        self.buffer = np.empty((min(_BLOCK, frames), channels), dtype="<i2")
        self._plan = _plan(frames, runs)
        widest = max((p[1] - p[0] for p in self._plan if not isinstance(p, Copy)), default=0)
        self._sums = np.empty((min(_BLOCK, widest), channels), dtype=np.int32)
        peak = 0
        for piece in self._plan:
            if not isinstance(piece, Copy):
                for block in _block_sums(piece, self._sums):
                    peak = max(peak, int(block.max()), -int(block.min()))
        self._gain = PEAK_CEILING * 32767.0 / peak if peak else 0.0

    def blocks(self) -> Iterator[Union[np.ndarray, Copy]]:
        """Yield the track in order: each sum piece as normalized ``<i2``
        blocks of at most ``_BLOCK`` frames, views of ``buffer`` valid until
        the next one is yielded, and each copy piece as it is. A copy needs
        frames before it, so a track's first piece is a block."""
        scaled = np.empty(self.buffer.shape, dtype=np.float64)
        for piece in self._plan:
            if isinstance(piece, Copy):
                yield piece
                continue
            for block in _block_sums(piece, self._sums):
                buf, res = scaled[:len(block)], self.buffer[:len(block)]
                np.multiply(block, self._gain, out=buf)
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
    rate, channels = stems[0].sample_rate, stems[0].channels
    length = scenes[-1].end_s * rate  # inf where a finite end overflows
    frames = length if math.isinf(length) else round(length)
    _wav_header("the mix", frames, channels, rate)  # refuses a track a WAV cannot hold
    runs: List[Run] = []
    last = 0  # the frame the scenes so far reach
    for scene, active in zip(scenes, schedule):
        start = round(scene.start_s * rate)
        end = round(scene.end_s * rate)
        if start < last:
            raise MalformedSourceError(f"scene {scene.id} starts before the scene ahead of it ends")
        if end <= start:
            continue
        last = end
        if active:  # each stem looped from sample 0, cut at end
            runs.append((start, end, [by_label[label].samples for label in active]))
    return Mix(frames, channels, runs)


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
    _wav_header(path, 0, channels, rate)  # refuses a rate the output WAV cannot hold
    if len(raw) % (2 * channels):
        raise StemMismatchError(f"{path}: data ends in a partial frame")
    samples = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)
    if len(samples) == 0:
        raise StemMismatchError(f"{path}: stem has no samples")
    return samples, rate


def write_wav(path: str, mix: Mix, sample_rate: int) -> None:
    """Write ``mix`` as a 16-bit PCM WAV. The header goes first, with the
    sizes of the whole track. The mix's blocks are written as they come, and
    each of its copy pieces from the frames it repeats (see ``_copy_back``).
    Every byte goes straight to the file's descriptor, with no buffer in
    between, so a mapping of the file holds every frame written before it.
    A failure between blocks leaves ``path`` as it was."""
    header = _wav_header(path, *mix.shape, sample_rate)
    with publish(path, binary=True) as fh:
        fd = fh.fileno()
        _write_repeating(fd, header, len(header))
        for block in mix.blocks():
            if isinstance(block, Copy):
                _copy_back(path, fd, block, mix.buffer)
            else:
                _write_repeating(fd, block.reshape(-1).view(np.uint8), block.nbytes)


def _wav_header(name: str, frames: int, channels: int, rate: int) -> bytes:
    """The header ``wave`` writes for a 16-bit PCM WAV of ``frames`` frames;
    a value one of its fields cannot hold is refused, naming ``name``."""
    align = 2 * channels  # bytes per frame
    if not 0 < align <= 0xFFFF:
        raise StemMismatchError(f"{name}: {channels} channels do not fit a WAV")
    if rate < 1 or rate * align > _WAV_FIELD_MAX:
        raise StemMismatchError(f"{name}: {rate} Hz with {channels} channels does not fit a WAV")
    data = frames * align
    if 36 + data > _WAV_FIELD_MAX:
        raise StemMismatchError(f"{name}: a track of {frames} frames passes the 4 GiB a WAV holds")
    return _HEADER.pack(b"RIFF", 36 + data, b"WAVE", b"fmt ", 16, 1,
                        channels, rate, rate * align, align, 16, b"data", data)


def _copy_back(path: str, fd: int, piece: Copy, buf: np.ndarray) -> None:
    """Write ``piece``'s frames to ``fd`` by repeating the earlier frames it
    copies, which the file already holds.

    The frames it repeats, one period or the part of it the piece uses, are
    read through a read-only mapping of the file. Only bytes this process has
    written to its own temp file are ever mapped, never a stem or any other
    input, which another process could shrink under the mapping. A repeat
    shorter than ``buf`` is tiled into it as whole periods, so even a
    one-frame period is written a block or more at a time. A longer one is
    written straight from its mapping, mapped once for the piece, or a window
    of at most ``_WINDOW`` frames at a time when it is longer."""
    src, lo, hi = piece
    frame_bytes = buf.itemsize * buf.shape[1]
    first = _HEADER.size + src * frame_bytes  # where frame src lies in the file
    end = first + min(lo - src, hi - lo) * frame_bytes
    left = (hi - lo) * frame_bytes
    period = end - first
    if period < buf.nbytes:
        tiles = min(buf.nbytes // period, -(-left // period))  # as many as the piece uses
        unit = buf.reshape(-1).view(np.uint8)[:tiles * period]
        with _mapped(path, fd, first, end) as view:
            unit[:period] = view
        unit.reshape(tiles, period)[1:] = unit[:period]
        _write_repeating(fd, unit, left)
        return
    step = _WINDOW * frame_bytes
    windows = [(max(at, first), min(at + step, end))
               for at in range(first - first % mmap.ALLOCATIONGRANULARITY, end, step)]
    # a repeat in one window is mapped once and written over and over; a
    # longer one is mapped a window at a time, each time it comes round
    while left:
        for a, b in windows:
            size = left if len(windows) == 1 else min(left, b - a)
            with _mapped(path, fd, a, b) as view:
                _write_repeating(fd, view, size)
            left -= size
            if not left:
                break


@contextmanager
def _mapped(path: str, fd: int, first: int, end: int) -> Iterator[memoryview]:
    """A read-only view of bytes [first, end) of ``fd``'s file, mapped from
    the page that holds ``first``. The view and the mapping are released
    when the block exits, however it exits."""
    at = first - first % mmap.ALLOCATIONGRANULARITY
    try:
        mapping = mmap.mmap(fd, end - at, flags=_MAP_FLAGS, prot=mmap.PROT_READ, offset=at)
    except (OSError, ValueError) as exc:  # ValueError: the file is shorter than asked
        raise ConfigError(f"cannot write {path}: cannot map the frames to repeat: {exc}") from exc
    with mapping, memoryview(mapping) as whole, whole[first - at:] as view:
        yield view


def _write_repeating(fd: int, unit, size: int) -> None:
    """Write ``size`` bytes to ``fd`` that repeat the bytes of ``unit`` from
    its start, as many repeats a call as ``writev`` takes. A short write
    goes on from the byte it stopped at, so a failing one raises its error."""
    with memoryview(unit) as whole:
        at = 0  # where in the unit the next byte comes from
        while size:
            with whole[at:at + size] as head:
                repeats = min(_IOV_MAX - 1, (size - len(head)) // len(whole))
                written = os.writev(fd, [head] + [whole] * repeats)
            size -= written
            at = (at + written) % len(whole)


def load_stem_manifest(path: str) -> List[Stem]:
    """Manifest: JSON list of {label, path, activation_rank} with unique
    labels; relative stem paths resolve against the manifest's directory."""
    entries = read_json(path, ConfigError, "stem manifest", kind=list)
    base = os.path.dirname(os.path.abspath(path))
    stems = []
    try:
        for entry in entries:
            stem_path = typed(entry["path"], str)
            if not os.path.isabs(stem_path):
                stem_path = os.path.join(base, stem_path)
            samples, rate = read_wav(stem_path)
            stems.append(
                Stem(
                    label=typed(entry["label"], str),
                    samples=samples,
                    sample_rate=rate,
                    activation_rank=typed(entry["activation_rank"], int),
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
