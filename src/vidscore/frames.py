"""Frame sources and per-frame pixel statistics.

Two kinds of input are supported behind one iterator interface:

* a raw RGB24 stream (``<name>.rgb24``) with a text sidecar (``<name>.hdr``)
  declaring ``width= height= fps_num= fps_den=``, and
* a directory of zero-padded, numbered binary PPM (P6) images plus a frame
  rate.

Each frame yields two statistics downstream detectors consume:

* ``avg_intensity``: the mean over pixels of (R+G+B)/3, in [0, 255]. The fade
  threshold is applied on this normalized scale so it is independent of the
  frame size.
* ``hsv_delta``: the mean absolute per-pixel change in hue, saturation and
  value versus the previous frame, each channel scaled to [0, 255], averaged
  over the three channels. Hue lives on a circle of 256 units and differences
  are taken on the shorter arc, so a hue delta never exceeds 128.

``stream_stats`` splits a clip opened here across the CPUs in the process's
affinity mask (``os.sched_getaffinity``): one contiguous frame range per CPU,
each range after the first computed by a worker thread that reads that range
alone. There is no setting for it; to use fewer CPUs, narrow the mask (for
example with ``taskset``). The statistics do not depend on the split.

Each thread reads its range a run of frames at a time into one buffer, and
makes one compiled pass over each run (``_framestats.c``, through
``ctypes``); the read and the pass both release the interpreter lock. Other
iterables of frames are copied into such a buffer in the calling thread.
The pass sums each frame's changes exactly, in integers, and runs an AVX2
body on x86-64 where the CPU has one. The library is built on first use
with the C compiler Python was built with, and cached in the
``__pycache__`` folder beside this module.
Where no library can be built or loaded there, the plain numpy functions
``_frame_hsv``, ``_exact_sum`` and ``_hsv_changes`` take the same integer
sums from the same run buffer, a frame at a time and in the calling thread
alone, as they hold the interpreter lock. They give the same statistics bit
for bit and remain the oracle for the compiled pass.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ConfigError, MalformedSourceError, SourceNotFoundError
from .files import read_input, staged
from .scenes import FrameSpec, FrameStats, check_frame_size

HUE_SCALE = 256.0  # full hue circle after rescaling; max circular delta is 128


@dataclass(frozen=True)
class Frame:
    index: int
    pixels: bytes  # interleaved RGB, 8 bits per channel, row-major


# bytes of the frames that one run buffer holds, which go to one compiled
# call; a run holds at least one frame
_RUN_BYTES = 1 << 19


def _run_frames(size: int) -> int:
    """How many frames of ``size`` bytes a run holds."""
    return max(1, _RUN_BYTES // size)


class FrameSource:
    """Ordered, single-pass iterator of frames with a known FrameSpec.

    ``reader(start, stop, buffer)`` fills the writable ``buffer`` with as
    many whole frames of ``start:stop`` as it holds, again and again, and
    yields each fill's frame count; a frame that cannot be read raises once
    the whole frames before it are yielded. A source opened here builds its
    iterator on its reader. One built without a reader has only its
    iterator, so ``stream_stats`` computes it in one thread.
    """

    def __init__(self, spec: FrameSpec, total_frames: int, frames: Iterator[Frame],
                 reader: Optional[Callable[[int, int, object], Iterator[int]]] = None):
        self.spec = spec
        self.total_frames = total_frames
        self._frames = frames
        self._reader = reader

    def __iter__(self) -> Iterator[Frame]:
        return self._frames


def _frames_of(reader, size: int, total: int) -> Iterator[Frame]:
    """Frames ``0:total`` of ``size`` bytes from ``reader``, each copied out
    of one run buffer; kept, though ``stream_stats`` takes the reader, for
    the benchmark's traced run and as the serial reference in tests."""
    buffer = bytearray(size * _run_frames(size))
    view, index = memoryview(buffer), 0
    for count in reader(0, total, buffer):
        for offset in range(0, count * size, size):
            yield Frame(index=index, pixels=bytes(view[offset:offset + size]))
            index += 1


def open_frame_source(path: str, fps: Optional[tuple[int, int]] = None) -> FrameSource:
    """Open a raw RGB24 stream (with .hdr sidecar) or a PPM image directory.

    For directories ``fps`` must be supplied as (numerator, denominator).
    """
    if os.path.isdir(path):
        if fps is None:
            raise MalformedSourceError(f"image directory {path!r} needs a frame rate")
        return _open_image_dir(path, fps)
    if not os.path.exists(path):
        raise SourceNotFoundError(f"no such source: {path}")
    return _open_raw_stream(path)


def _parse_header(path: str) -> FrameSpec:
    fields = {}
    for token in read_input(path, MalformedSourceError, "stream header").split():
        key, eq, value = token.partition("=")
        if not eq or key not in ("width", "height", "fps_num", "fps_den"):
            raise MalformedSourceError(f"bad stream header {path}: unknown token {token!r}")
        if key in fields:
            raise MalformedSourceError(f"bad stream header {path}: {key} given twice")
        fields[key] = value
    try:
        return FrameSpec(
            width=_header_number(fields["width"]),
            height=_header_number(fields["height"]),
            fps_num=_header_number(fields["fps_num"]),
            fps_den=_header_number(fields["fps_den"]),
        )
    except (KeyError, ValueError) as exc:
        raise MalformedSourceError(f"bad stream header {path}: {exc}") from exc


def _header_number(text: str) -> int:
    """A stream or PPM header's number: ASCII digits after at most a minus
    sign, which the range checks refuse. ``int`` also takes a plus sign,
    underscores and other scripts' digits, which neither format allows."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not a decimal number")
    return int(text)


def _open_raw_stream(path: str) -> FrameSource:
    header = os.path.splitext(path)[0] + ".hdr"
    if not os.path.exists(header):
        raise SourceNotFoundError(f"missing sidecar header: {header}")
    spec = _parse_header(header)
    size = spec.frame_bytes
    length = os.path.getsize(path)
    if length % size != 0:
        raise MalformedSourceError(
            f"{path}: {length} bytes is not a multiple of the {size}-byte frame size"
        )
    total = length // size

    def read(start: int, stop: int, buffer) -> Iterator[int]:
        # unbuffered, so each readinto fills the buffer itself; after a
        # short one, another, until the run or the file ends
        view = memoryview(buffer)
        run = view.nbytes // size
        try:
            with open(path, "rb", buffering=0) as fh:
                fh.seek(start * size)
                for first in range(start, stop, run):
                    want, got = min(run, stop - first) * size, 0
                    while got < want:
                        more = fh.readinto(view[got:want])
                        if not more:
                            break
                        got += more
                    if got >= size:
                        yield got // size
                    if got < want:
                        raise MalformedSourceError(
                            f"{path}: truncated at frame {first + got // size}")
        except OSError as exc:
            raise MalformedSourceError(f"cannot read video {path}: {exc}") from exc

    return FrameSource(spec, total, _frames_of(read, size, total), read)


_NUMBERED = re.compile(r"(\d+)\.ppm$", re.IGNORECASE)


def _open_image_dir(path: str, fps: tuple[int, int]) -> FrameSource:
    try:
        names = os.listdir(path)
    except OSError as exc:
        raise MalformedSourceError(f"cannot read image directory {path}: {exc}") from exc
    entries = []
    for name in names:
        match = _NUMBERED.search(name)
        if match:
            entries.append((int(match.group(1)), name))
    if not entries:
        raise SourceNotFoundError(f"no numbered .ppm frames in {path}")
    entries.sort()
    for (number, name), (following, other) in zip(entries, entries[1:]):
        if number == following:
            raise MalformedSourceError(f"{name} and {other} both hold frame {number}")
        if following != number + 1:
            raise MalformedSourceError(f"no frame {number + 1} between {name} and {other}")

    width, height, first = _read_ppm(os.path.join(path, entries[0][1]))
    spec = FrameSpec(width=width, height=height, fps_num=fps[0], fps_den=fps[1])
    size = spec.frame_bytes

    def pixels(index: int) -> bytes:  # the first file is read already
        if not index:
            return first
        name = entries[index][1]
        w, h, data = _read_ppm(os.path.join(path, name))
        if (w, h) != (width, height):
            raise MalformedSourceError(f"{name}: size {w}x{h} differs from {width}x{height}")
        return data

    def read(start: int, stop: int, buffer) -> Iterator[int]:
        view = memoryview(buffer)
        run = view.nbytes // size
        for at in range(start, stop, run):
            count = 0
            try:
                for index in range(at, min(at + run, stop)):
                    view[count * size:(count + 1) * size] = pixels(index)
                    count += 1
            except MalformedSourceError:
                if count:
                    yield count
                raise
            yield count

    return FrameSource(spec, len(entries), _frames_of(read, size, len(entries)), read)


def _read_ppm(path: str) -> tuple[int, int, bytes]:
    """Minimal binary PPM (P6, maxval 255) reader."""
    data = read_input(path, MalformedSourceError, "PPM frame", binary=True)
    fields = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(data):
            raise MalformedSourceError(f"{path}: truncated PPM header")
        if data[pos : pos + 1] == b"#":  # comment runs to end of line
            newline = data.find(b"\n", pos)
            pos = len(data) if newline < 0 else newline + 1
            continue
        if data[pos : pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise MalformedSourceError(f"{path}: not a binary PPM (P6) file")
    try:
        width, height, maxval = (_header_number(field.decode("latin-1"))
                                 for field in fields[1:])
        check_frame_size(width, height)
    except ValueError as exc:
        raise MalformedSourceError(f"{path}: bad PPM header: {exc}") from exc
    if maxval != 255:
        raise MalformedSourceError(f"{path}: unsupported maxval {maxval}")
    pixels = data[pos : pos + 3 * width * height]
    if len(pixels) != 3 * width * height:
        raise MalformedSourceError(f"{path}: truncated pixel data")
    return width, height, pixels


# -- per-frame statistics ------------------------------------------------------

_SUM_BLOCK = 1 << 16  # uint8 values per uint32 partial sum: 255 * 2**16 < 2**32


def _exact_sum(values: np.ndarray) -> int:
    """The exact sum of a flat uint8 array: uint32 sums over blocks of
    ``_SUM_BLOCK`` values, added in uint64. A plain uint32 sum wraps past
    about 16.8 M values of 255, and a uint64 one takes about twice as long."""
    whole = values.size - values.size % _SUM_BLOCK
    total = int(values[whole:].sum(dtype=np.uint32))
    if whole:
        blocks = values[:whole].reshape(-1, _SUM_BLOCK).sum(axis=1, dtype=np.uint32)
        total += int(blocks.sum(dtype=np.uint64))
    return total


@functools.cache
def _hue_table() -> np.ndarray:
    """Float32 lookup table for hue, built on first use.

    Hue is indexed by ``(r - g + 255) * 511 + (g - b + 255)`` (511 x 511
    entries, 1 MB). Adding one constant to all three channels changes
    neither which channel is largest nor any difference between channels,
    and the hexagonal formula (red maximum: ``(g - b) / c mod 6``, green:
    ``(b - r) / c + 2``, blue: ``(r - g) / c + 4``, ties going to red, then
    green, with ``c = max - min``) reads nothing else. So the pair of
    differences fixes the hue. Each entry is computed from the triple
    ``(r - g, 0, b - g)``, which shares that pair, with the same float32
    operations as the per-pixel formula, so lookups match it bit for bit for
    all 2**24 colours. Pairs whose channels would span more than 255 belong
    to no colour and are never read. The grid is built in int16 and float32.
    """
    diff = np.arange(-255, 256, dtype=np.int16)
    red = diff[:, None]  # r - g
    blue = -diff[None, :]  # b - g
    hi = np.maximum(np.maximum(red, 0), blue)
    lo = np.minimum(np.minimum(red, 0), blue)
    h6 = (red + blue - hi - 2 * lo).astype(np.float32)  # (mid - min) / chroma
    h6 /= np.maximum(hi - lo, 1).astype(np.float32)
    del hi, lo
    red_max = (red >= 0) & (red >= blue)
    green_max = ~red_max & (blue <= 0)
    # the formula's numerator is -(mid - min) when b > g (red maximum),
    # r >= b (green maximum) or g > r (blue maximum)
    negate = np.where(red_max, blue > 0, np.where(green_max, red >= blue, red < 0))
    np.negative(h6, out=h6, where=negate)
    h6[red_max & negate] %= np.float32(6.0)
    h6[green_max] += np.float32(2.0)
    h6[~(red_max | green_max)] += np.float32(4.0)
    h6 *= np.float32(HUE_SCALE / 6.0)
    return h6.ravel()


def _frame_hsv(pixels):
    """Per-pixel ``(hue, saturation, value)`` of a frame's RGB24 ``pixels``,
    every channel in [0, 255]: hue and saturation float32, value uint8, so
    that ``_hsv_changes`` can take its sum in integers.

    Hue comes from the standard hexagonal model rescaled so the full circle is
    256 units; achromatic pixels get hue 0. Hue is a float32 lookup in the
    table of ``_hue_table`` by the two channel differences ``r - g`` and
    ``g - b``, which fix it because hue does not change when one constant is
    added to every channel; results are identical for all 2**24 colours to
    float32 arithmetic on every pixel. Saturation is that arithmetic,
    ``chroma / max(value, 1) * 255`` in float32.

    Numpy 1.x types a scalar by its value, so each mixed-type step has two
    array operands or a scalar of the array's kind: the hue index is int32,
    as ``uint8_array * 511`` would be int16 and overflow.
    """
    r, g, b = np.frombuffer(pixels, dtype=np.uint8).reshape(-1, 3).T.copy()
    v = np.maximum(np.maximum(r, g), b)
    chroma = v - np.minimum(np.minimum(r, g), b)
    hue = _hue_table().take((r.astype(np.int32) - g) * 511 + g - b + (255 * 511 + 255))
    sat = chroma / np.maximum(v, 1).astype(np.float32) * np.float32(255.0)
    return hue, sat, v


_CHANGE_BLOCK = 1 << 19  # float32 changes per float64 sum: 2**19 * 256 = 2**27


def _change_units(changes: np.ndarray, bits: int) -> int:
    """The exact sum of float32 ``changes`` in [0, 256), each a multiple of
    2**-bits for ``bits`` up to 26, in units of 2**-bits.

    A block of ``_CHANGE_BLOCK`` changes sums below 2**27, so every partial
    sum is a multiple of 2**-26 below 2**27, which a float64 holds: the
    block's float64 sum is exact in any order, whatever numpy's buffer
    size, and so is its scaling by 2**bits.
    """
    return sum(int(np.add.reduce(changes[start:start + _CHANGE_BLOCK], dtype=np.float64)
                   * 2**bits) for start in range(0, changes.size, _CHANGE_BLOCK))


def _hsv_changes(prev, curr) -> tuple[int, int, int]:
    """The exact sums of the per-pixel changes between two ``_frame_hsv``
    results: of hue, on the shorter arc, in units of 2**-26; of saturation
    in units of 2**-24; and of value.

    Every hue change is a multiple of 2**-26 in [0, 128] and every
    saturation change one of 2**-24 in [0, 255] (see ``_framestats.c``), so
    ``_change_units`` sums them exactly, as ``_exact_sum`` does the value
    changes.
    """
    dh = np.abs(curr[0] - prev[0])
    dh = np.minimum(dh, np.float32(HUE_SCALE) - dh)
    ds = np.abs(curr[1] - prev[1])
    dv = np.maximum(curr[2], prev[2]) - np.minimum(curr[2], prev[2])  # |curr - prev| in uint8
    return _change_units(dh, 26), _change_units(ds, 24), _exact_sum(dv)


def _delta_score(hue_units: int, sat_units: int, dv_sum: int, n: int) -> float:
    """The HSV delta of ``n`` pixels from the exact sums of their hue
    changes in units of 2**-26, their saturation changes in units of 2**-24
    and their value changes.

    Each term is one true division of Python integers, which rounds the
    exact mean once, so the delta does not depend on the order either path
    sums in.
    """
    return (hue_units / (n << 26) + sat_units / (n << 24) + dv_sum / n) / 3.0


# -- the compiled pass ---------------------------------------------------------

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_framestats.c")
# -O3 because GCC 12 vectorises none of the pass's loops at -O2; no
# -ffast-math, which reorders float operations, and no -march=native, since a
# cached library can outlive the machine it was built on: the pass picks its
# AVX2 body at run time instead
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# no interpreter with an extension suffix builds this name
_UNSUFFIXED = re.compile(r"_framestats\.[0-9a-f]{16}\.so")


@functools.cache
def _kernel():
    """The compiled frame pass of ``_framestats.c``, built on first use into
    the ``__pycache__`` folder beside this module, or None where it cannot
    be built. Nothing is built at import."""
    return _build(_SOURCE, os.path.join(os.path.dirname(_SOURCE), "__pycache__"))


def stats_path() -> str:
    """Which per-frame loop computes the statistics: "compiled" or "numpy"."""
    return "numpy" if _kernel() is None else "compiled"


def _build(source: str, cache: str):
    """Load the C file ``source`` compiled to
    ``<cache>/_framestats.<key><suffix>``, compiling it first when that file
    is missing; None when there is no C compiler, the compile fails or
    ``source`` cannot be read.

    The suffix is the interpreter's extension suffix, which names the
    interpreter (as a ``.pyc`` file's cache tag does), the machine and the C
    ABI. The key hashes the source, the compile command and the suffix, so a
    library is built once per source, flag set and machine. It is compiled
    to a temporary name and renamed into place, so processes that build at
    once each load a whole library; then the older libraries with its
    suffix, and any from before libraries had one (``_UNSUFFIXED``), which
    are never loaded again, are removed where they can be.
    ``cache`` is trusted as the module's bytecode beside it is. Where it
    cannot be written, or its library not loaded, this is None too: a
    library in a folder that only one process keeps would cost every
    process the compile.

    The modules only a build needs are imported here, so a process that
    computes no frame statistics never loads them.
    """
    import hashlib
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile
    from contextlib import suppress

    command = shlex.split(sysconfig.get_config_var("CC") or "")
    if not command or shutil.which(command[0]) is None:
        return None
    try:
        code = read_input(source, OSError, "C source", binary=True)
    except OSError:
        return None
    command += [*_CFLAGS, "-x", "c", "-"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256("\0".join([*command, suffix]).encode() + b"\0" + code)
    name = f"_framestats.{key.hexdigest()[:16]}{suffix}"
    path = os.path.join(cache, name)
    try:
        os.makedirs(cache, exist_ok=True)
        if not os.path.exists(path):
            handle, tmp = tempfile.mkstemp(prefix=name, dir=cache)
            os.close(handle)
            with staged(path, tmp):
                subprocess.run(command + ["-o", tmp], input=code, capture_output=True,
                               check=True)
            for old in os.listdir(cache):
                ours = old.startswith("_framestats.") and old.endswith(suffix)
                if old != name and (ours or _UNSUFFIXED.fullmatch(old)):
                    with suppress(OSError):
                        os.remove(os.path.join(cache, old))
        return _load(path)
    except (OSError, ConfigError, subprocess.CalledProcessError):
        return None


def _load(path: str):
    """The pass's entry point in the shared library ``path``."""
    kernel = ctypes.CDLL(path).vidscore_frame_stats
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                       ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    kernel.restype = None
    return kernel


class _WorkArea:
    """The run buffer and two HSV sets for one stream of frames of
    ``pixels`` pixels, and how many frames it has ``seen``. A thread builds
    one and reuses it for every run: a fresh array is a new mapping whose
    pages fault again. ``buffer`` holds ``run`` frames. On the numpy path,
    where ``_kernel`` is None, ``prev`` holds the previous frame's HSV."""

    def __init__(self, pixels: int):
        self.kernel, self.pixels, self.seen, self.prev = _kernel(), pixels, 0, None
        self.run = _run_frames(3 * pixels)
        self.buffer = np.empty(3 * pixels * self.run, np.uint8)
        self.address = self.buffer.ctypes.data
        # hue, saturation and value of set 0, then of set 1
        self.hsv = [np.empty(pixels, dtype) for _ in range(2)
                    for dtype in (np.float32, np.float32, np.uint8)]
        self.sets = (ctypes.c_void_p * 6)(*[a.ctypes.data for a in self.hsv])
        self.table = _hue_table().ctypes.data

    def sums(self, count: int, rows: np.ndarray) -> None:
        """Write the sums of the buffer's first ``count`` frames, the
        stream's next, into the first ``count`` rows of the C-contiguous
        int64 ``rows``: each frame's channel sum, then the sums of its
        changes that ``_hsv_changes`` takes, which are 0 for the stream's
        first frame."""
        if self.kernel is not None:
            # the stream's frame i writes HSV set i % 2, and has a previous one from i = 1
            self.kernel(self.address, count, self.pixels, self.sets, self.seen % 2,
                        self.seen > 0, self.table, rows.ctypes.data)
        else:
            for row, pixels in zip(rows[:count], self.buffer.reshape(self.run, -1)):
                hsv = _frame_hsv(pixels)
                changes = (0, 0, 0) if self.prev is None else _hsv_changes(self.prev, hsv)
                row[:] = (_exact_sum(pixels), *changes)
                self.prev = hsv
        self.seen += count

    def stats(self, indexes) -> Iterator[FrameStats]:
        """FrameStats of the buffer's first ``len(indexes)`` frames, which
        have those indexes; their sums are taken at once."""
        rows, delta = np.empty((len(indexes), 4), np.int64), self.seen > 0
        self.sums(len(indexes), rows)
        return _stats(rows, indexes, self.pixels, delta)


def _stats(rows: np.ndarray, indexes, pixels: int, delta: bool) -> Iterator[FrameStats]:
    """FrameStats of the frames ``indexes`` of ``pixels`` pixels from their
    ``rows`` of sums; the first has an HSV delta where ``delta`` is set, and
    every later one has. A frame has under 2**30 pixels (``FrameSpec``), so
    its channel sum is below 2**53 and one division gives a float64 mean."""
    for index, (total, hue, sat, val) in zip(indexes, rows.tolist()):
        yield FrameStats(index=index, avg_intensity=total / (3 * pixels),
                         hsv_delta=_delta_score(hue, sat, val, pixels) if delta else None)
        delta = True


def stream_stats(frames) -> Iterator[FrameStats]:
    """FrameStats per frame, in order, from one pass over ``frames``.

    A FrameSource with a reader is read straight into run buffers and, on
    the compiled pass, split into contiguous frame ranges, one per CPU in
    this process's affinity mask (see ``_split_stats``). Any other iterable
    of Frames is copied into a run buffer in the calling thread. The
    statistics are the same bit for bit either way, and on either path.
    """
    if isinstance(frames, FrameSource) and frames._reader is not None:
        return _split_stats(frames)
    return _per_frame(frames)


def _frame_bytes(frame: Frame, first: Optional[int]) -> int:
    """The byte size of ``frame``'s pixels, which must be one or more whole
    RGB24 pixels in one C-contiguous buffer, and ``first`` bytes if given."""
    view = memoryview(frame.pixels)
    if not view.c_contiguous:  # np.frombuffer reads only one contiguous buffer
        raise MalformedSourceError(f"frame {frame.index}: pixels not in one contiguous buffer")
    size = view.nbytes  # len() counts items, not bytes
    if (size != first) if first else (size == 0 or size % 3):
        want = f"the first frame's {first}" if first else "whole RGB24 pixels"
        raise MalformedSourceError(f"frame {frame.index}: {size} bytes, not {want}")
    return size


def _per_frame(frames):
    """The loop over an iterable of Frames: each frame's pixels copied into
    the run buffer, and the sums of a run taken once it is full. The first
    frame's size sizes the work area. A frame that fails ``_frame_bytes``,
    or an error from ``frames``, raises after the stats of every frame
    before it: the run so far first.
    """
    work, indexes = None, []
    try:
        for frame in frames:
            size = _frame_bytes(frame, work and 3 * work.pixels)
            work = work or _WorkArea(size // 3)
            slot = len(indexes) * size
            work.buffer[slot:slot + size] = np.frombuffer(frame.pixels, np.uint8)
            indexes.append(frame.index)
            if len(indexes) == work.run:
                full, indexes = indexes, []
                yield from work.stats(full)
    except Exception:
        if indexes:
            yield from work.stats(indexes)
        raise
    if indexes:
        yield from work.stats(indexes)


def _read_stats(source: FrameSource, work: _WorkArea, start: int,
                stop: int) -> Iterator[FrameStats]:
    """Stats of frames ``start:stop`` of ``source``, the next of ``work``'s
    stream: one read into its buffer and one sum a run."""
    for count in source._reader(start, stop, work.buffer):
        yield from work.stats(range(start, start + count))
        start += count


def _split_stats(source: FrameSource) -> Iterator[FrameStats]:
    """Stats of ``source`` split into one contiguous frame range per CPU in
    this process's affinity mask, or one range where ``_kernel`` is None, as
    the numpy functions hold the interpreter lock: range k by worker thread
    k for k >= 1, the first by this thread, so one range starts no thread.

    Each thread reads a run into its work area's buffer, then takes the
    run's sums. A worker reads from the frame before its range, which seeds
    its first delta, and keeps its range's rows of sums, or nothing when its
    reader or pass raises; before each pass it checks whether it was told
    to stop. This thread computes its range, joins every worker and turns
    their rows into stats; when one failed or did not start, it goes on
    over every later frame with the same work area, so bad input raises the
    same error after the same stats as one thread would. On every path,
    also on early close or error, the workers are told to stop and joined.
    """
    total = source.total_frames
    threads = _kernel() is not None and hasattr(os, "sched_getaffinity")
    parts = max(1, min(len(os.sched_getaffinity(0)) if threads else 1, total))
    bounds = [total * k // parts for k in range(parts + 1)]
    pixels = source.spec.width * source.spec.height
    _hue_table()  # built once, not by each worker
    stop = threading.Event()
    done = [None] * (parts - 1)  # each worker's rows, once it has its whole range

    def work(k: int, start: int, end: int) -> None:
        area, rows, filled = _WorkArea(pixels), np.empty((end - start + 1, 4), np.int64), 0
        try:
            for count in source._reader(start - 1, end, area.buffer):
                if stop.is_set():
                    return
                area.sums(count, rows[filled:])
                filled += count
        except Exception:  # this thread's loop computes the range again and raises there
            return
        done[k] = rows[1:]

    workers = []
    try:
        for k, (start, end) in enumerate(zip(bounds[1:-1], bounds[2:])):
            worker = threading.Thread(target=work, args=(k, start, end))
            try:
                worker.start()
            except RuntimeError:
                break  # the ranges left are computed by this thread
            workers.append(worker)
        area = _WorkArea(pixels)
        yield from _read_stats(source, area, 0, bounds[1])
        for worker in workers:
            worker.join()
        if any(rows is None for rows in done):
            yield from _read_stats(source, area, bounds[1], total)
        else:
            for rows, start in zip(done, bounds[1:]):
                yield from _stats(rows, range(start, start + len(rows)), pixels, True)
    finally:
        stop.set()
        for worker in workers:
            worker.join()


def fps_fraction(text: str) -> tuple[int, int]:
    """Parse '30', '30/1' or '30000/1001' into an (num, den) pair."""
    frac = Fraction(text)
    return frac.numerator, frac.denominator
