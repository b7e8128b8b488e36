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
each range after the first computed by a forked child that reads that range
alone (a source built from an iterator alone reads through to it). There is
no setting for it; to use fewer CPUs, narrow the mask (for example with
``taskset``). The statistics do not depend on the split.

Each process runs one per-frame loop, which makes one compiled pass over
each frame's pixels (``_framestats.c``, called through ``ctypes``). The pass
also sums the frame's changes exactly, in integers, runs an AVX2 body on
x86-64 where the CPU has one, and writes each frame's HSV into one of two
sets the loop sizes on its first frame (a child sizes its own after the
fork). The library is built on first use with the C compiler Python was
built with, and cached in the ``__pycache__`` folder beside this module.
Where no library can be built or loaded there, the loop runs the plain numpy
functions ``_frame_hsv``, ``_hsv_delta`` and ``compute_intensity``, which
take the same integer sums, give the same statistics bit for bit and remain
the oracle for the compiled pass.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import mmap
import os
import re
import signal
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


class FrameSource:
    """Ordered, single-pass iterator of frames with a known FrameSpec.

    ``frames(start, stop)`` gives frames ``start:stop`` from ``reader``,
    which reads those alone; a source built without one reads through its
    iterator, dropping the frames before ``start``.
    """

    def __init__(self, spec: FrameSpec, total_frames: int, frames: Iterator[Frame],
                 reader: Optional[Callable[[int, int], Iterator[Frame]]] = None):
        self.spec = spec
        self.total_frames = total_frames
        self._frames = frames
        self._reader = reader

    def __iter__(self) -> Iterator[Frame]:
        return self._frames

    def frames(self, start: int, stop: int) -> Iterator[Frame]:
        if self._reader is not None:
            return self._reader(start, stop)
        return itertools.islice(iter(self), start, stop)


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
            width=int(fields["width"]),
            height=int(fields["height"]),
            fps_num=int(fields["fps_num"]),
            fps_den=int(fields["fps_den"]),
        )
    except (KeyError, ValueError) as exc:
        raise MalformedSourceError(f"bad stream header {path}: {exc}") from exc


def _open_raw_stream(path: str) -> FrameSource:
    header = os.path.splitext(path)[0] + ".hdr"
    if not os.path.exists(header):
        raise SourceNotFoundError(f"missing sidecar header: {header}")
    spec = _parse_header(header)
    size = os.path.getsize(path)
    if size % spec.frame_bytes != 0:
        raise MalformedSourceError(
            f"{path}: {size} bytes is not a multiple of the "
            f"{spec.frame_bytes}-byte frame size"
        )
    total = size // spec.frame_bytes

    def read(start: int, stop: int) -> Iterator[Frame]:
        with open(path, "rb") as fh:
            fh.seek(start * spec.frame_bytes)
            for index in range(start, stop):
                data = fh.read(spec.frame_bytes)
                if len(data) != spec.frame_bytes:
                    raise MalformedSourceError(f"{path}: truncated at frame {index}")
                yield Frame(index=index, pixels=data)

    return FrameSource(spec, total, read(0, total), read)


_NUMBERED = re.compile(r"(\d+)\.ppm$", re.IGNORECASE)


def _open_image_dir(path: str, fps: tuple[int, int]) -> FrameSource:
    entries = []
    for name in os.listdir(path):
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

    def read(start: int, stop: int) -> Iterator[Frame]:
        for index, (_, name) in enumerate(entries[start:stop], start):
            w, h, pixels = _read_ppm(os.path.join(path, name)) if index else (width, height, first)
            if (w, h) != (width, height):
                raise MalformedSourceError(
                    f"{name}: size {w}x{h} differs from {width}x{height}"
                )
            yield Frame(index=index, pixels=pixels)

    return FrameSource(spec, len(entries), read(0, len(entries)), read)


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
        width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
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


def compute_intensity(frame: Frame) -> float:
    """Mean over pixels of (R+G+B)/3, in [0, 255].

    A source's frames have fewer than 2**30 pixels (``FrameSpec``), so the
    channel sum is an integer below 2**53, and summing it exactly and
    dividing once gives the same double as a float64 mean.
    """
    pixels = np.frombuffer(frame.pixels, dtype=np.uint8)
    return _exact_sum(pixels) / pixels.size


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


class _WorkArea:
    """The two HSV sets the compiled pass writes in turn, as the current and
    the previous frame's, for frames of ``pixels`` pixels, and its other
    arguments. One stream's loop builds this once: a fresh frame-sized array
    is a new mapping whose pages fault again on every frame. The pass writes
    its three sums of the changes into ``sums``, which ``tolist`` reads
    faster than Python unpacks a ``ctypes`` array."""

    def __init__(self, pixels: int):
        self.hsv = [
            (np.empty(pixels, dtype=np.float32), np.empty(pixels, dtype=np.float32),
             np.empty(pixels, dtype=np.uint8))
            for _ in range(2)
        ]
        # the compiled pass's arguments: each HSV set's addresses, and its
        # last two, the hue table and where the sums of the changes go
        self.addresses = [tuple(a.ctypes.data for a in hsv) for hsv in self.hsv]
        self.sums = np.zeros(3, dtype=np.int64)
        self.kernel_tail = (_hue_table().ctypes.data, self.sums.ctypes.data)


def _frame_hsv(pixels):
    """Per-pixel ``(hue, saturation, value)`` of a frame's RGB24 ``pixels``,
    every channel in [0, 255]: hue and saturation float32, value uint8, so
    that ``_hsv_delta`` can take its term in integers.

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


def _hsv_delta(prev, curr) -> float:
    """Mean absolute HSV change between two ``_frame_hsv`` results, averaged
    over the three channels.

    Every hue change is a multiple of 2**-26 in [0, 128] and every
    saturation change one of 2**-24 in [0, 255] (see ``_framestats.c``), so
    ``_change_units`` sums them exactly, as ``_exact_sum`` does the value
    changes.
    """
    dh = np.abs(curr[0] - prev[0])
    dh = np.minimum(dh, np.float32(HUE_SCALE) - dh)
    ds = np.abs(curr[1] - prev[1])
    dv = np.maximum(curr[2], prev[2]) - np.minimum(curr[2], prev[2])  # |curr - prev| in uint8
    return _delta_score(_change_units(dh, 26), _change_units(ds, 24), _exact_sum(dv), dh.size)


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
    """Load the C file ``source`` compiled to ``<cache>/_framestats.<key>.so``,
    compiling it first when that file is missing; None when there is no C
    compiler, the compile fails or ``source`` cannot be read.

    The key hashes the source, the compile command and the interpreter's
    extension suffix, which names the machine and C ABI a library is built
    for, so a library is built once per source, flag set and machine. It is
    compiled to a temporary name and renamed into place, so processes that
    build at once each load a whole library. ``cache`` is trusted as the
    module's bytecode beside it is. Where it cannot be written, or its
    library not loaded, this is None too: a library in a folder that only
    one process keeps would cost every process the compile.

    The modules only a build needs are imported here, so a process that
    computes no frame statistics never loads them.
    """
    import hashlib
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    command = shlex.split(sysconfig.get_config_var("CC") or "")
    if not command or shutil.which(command[0]) is None:
        return None
    try:
        code = read_input(source, OSError, "C source", binary=True)
    except OSError:
        return None
    command += [*_CFLAGS, "-x", "c", "-"]
    key = hashlib.sha256(
        "\0".join([*command, sysconfig.get_config_var("EXT_SUFFIX") or ""]).encode()
        + b"\0" + code)
    name = f"_framestats.{key.hexdigest()[:16]}.so"
    path = os.path.join(cache, name)
    try:
        os.makedirs(cache, exist_ok=True)
        if not os.path.exists(path):
            handle, tmp = tempfile.mkstemp(prefix=name, dir=cache)
            os.close(handle)
            with staged(path, tmp):
                subprocess.run(command + ["-o", tmp], input=code, capture_output=True,
                               check=True)
        return _load(path)
    except (OSError, ConfigError, subprocess.CalledProcessError):
        return None


def _load(path: str):
    """The pass's entry point in the shared library ``path``."""
    kernel = ctypes.CDLL(path).vidscore_frame_stats
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 8
    kernel.restype = ctypes.c_uint64
    return kernel


def _compiled_stats(kernel, pixels, work: _WorkArea, curr: bool, prev: bool):
    """``(avg_intensity, hsv_delta)`` of a frame's ``pixels`` from one call
    of ``kernel``, which writes the frame's HSV into set ``curr`` of
    ``work``; with ``prev``, the other set holds the previous frame's.
    ``pixels`` is any C-contiguous bytes-like object, passed without a copy.

    The kernel takes the exact integer sums of the changes that
    ``_hsv_delta`` takes, so ``_delta_score`` gives the same double.
    """
    if type(pixels) is not bytes:  # ctypes takes only bytes without a copy
        pixels = np.frombuffer(pixels, dtype=np.uint8).ctypes.data
    n = work.hsv[0][2].size
    previous = work.addresses[not curr] if prev else (None, None, None)
    total = kernel(pixels, n, *work.addresses[curr], *previous, *work.kernel_tail)
    if not prev:
        return total / (3 * n), None
    return total / (3 * n), _delta_score(*work.sums.tolist(), n)


def stream_stats(frames) -> Iterator[FrameStats]:
    """FrameStats per frame, in order, from one pass over ``frames``.

    A FrameSource is split into contiguous frame ranges, one per CPU in this
    process's affinity mask, and every range after the first is computed by
    a forked child (see ``_split_stats``). Any other iterable, a single CPU
    or a clip of one frame runs the same per-frame loop in this process.
    The statistics are the same bit for bit either way.
    """
    if isinstance(frames, FrameSource) and hasattr(os, "sched_getaffinity"):
        parts = min(len(os.sched_getaffinity(0)), frames.total_frames)
        if parts > 1:
            total = frames.total_frames
            return _split_stats(frames, [total * k // parts for k in range(parts + 1)])
    return _per_frame(frames)


def _per_frame(frames):
    """The per-frame loop: one call of the compiled pass a frame, or, where
    ``_kernel`` gives none, the numpy functions, with the same results.

    The first frame's size, in bytes whatever the item size of a frame's
    bytes-like pixels, sizes the compiled pass's work area. A frame that is
    not one or more whole RGB24 pixels in one C-contiguous buffer, or not
    the first frame's size, raises ``MalformedSourceError`` on either path.
    """
    kernel = _kernel()
    first = work = prev = None
    for frame in frames:
        view = memoryview(frame.pixels)
        if not view.c_contiguous:  # np.frombuffer reads only one contiguous buffer
            raise MalformedSourceError(
                f"frame {frame.index}: pixels not in one contiguous buffer")
        size = view.nbytes  # len() counts items, not bytes
        if first is None and size and size % 3 == 0:
            first = size
            work = None if kernel is None else _WorkArea(size // 3)
        if first is None or size != first:
            want = f"the first frame's {first}" if first else "whole RGB24 pixels"
            raise MalformedSourceError(f"frame {frame.index}: {size} bytes, not {want}")
        if kernel is None:
            hsv = _frame_hsv(frame.pixels)
            avg = compute_intensity(frame)
            delta = None if prev is None else _hsv_delta(prev, hsv)
        else:
            curr = work.hsv[0] is prev  # the HSV set that does not hold the previous frame's
            avg, delta = _compiled_stats(kernel, frame.pixels, work, curr, prev is not None)
            hsv = work.hsv[curr]
        yield FrameStats(index=frame.index, avg_intensity=avg, hsv_delta=delta)
        prev = hsv


def _split_stats(source: FrameSource, bounds: list) -> Iterator[FrameStats]:
    """Stats of ``source`` with frames ``bounds[k]:bounds[k + 1]`` computed
    by forked child k for k >= 1, and the first range by this process.

    The children are forked before any frame is read, so each one opens and
    reads its own range alone; no pixel data crosses a process boundary. Each
    child writes its range's rows into its own slice of one shared anonymous
    mapping, made before the forks. This process yields its own range from
    its one per-frame loop, waits for every child in order, and yields the
    mapping's rows once all of them exited 0. Every child is waited for,
    also on early close or error, so its CPU counts in ``RUSAGE_CHILDREN``.
    When a child fails or dies, or cannot be forked, that same loop goes on
    over every frame after this process's range, so bad input raises the
    same error after the same stats as the single-process loop.

    The hue table and the compiled pass are built, or the library loaded,
    before the forks, so each child inherits them and none builds its own.
    """
    _hue_table()
    _kernel()
    # two float64 a frame; the array keeps the mapping open, so it is not closed here
    rows = np.frombuffer(mmap.mmap(-1, 16 * (bounds[-1] - bounds[1]))).reshape(-1, 2)
    children = []  # pids not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            try:
                children.append(
                    _fork_range(source, start, rows[start - bounds[1]:stop - bounds[1]]))
            except OSError:
                break  # the ranges left are computed below
        stats = _per_frame(source)
        yield from itertools.islice(stats, bounds[1])
        failed = len(children) < len(bounds) - 2  # a fork failed
        while children and not failed:
            failed = os.waitpid(children[0], 0)[1] != 0
            del children[0]
        if failed:
            _reap(children)
            yield from stats
            return
        for index, (avg, delta) in enumerate(rows.tolist(), start=bounds[1]):
            yield FrameStats(index=index, avg_intensity=avg, hsv_delta=delta)
    finally:
        _reap(children)


def _fork_range(source: FrameSource, start: int, out: np.ndarray) -> int:
    """Fork a child that computes frames ``start:start + len(out)`` of
    ``source`` into ``out``, a slice of a shared mapping, and return its pid.

    The child reads frames from ``start - 1`` on through ``source.frames``,
    so it reads no earlier frame unless ``source`` has no reader. It runs
    the per-frame loop from frame ``start - 1``, whose HSV seeds the first
    delta and whose stats it drops, and writes each later frame's
    ``(avg_intensity, hsv_delta)`` as a row of ``out``; a range that comes
    out shorter fails the reshape. It leaves through ``os._exit``, so it
    runs no exit handler, flushes no buffer it inherited and raises nothing
    into the caller's code; any failure shows only as a non-zero status.
    The child calls no BLAS routine, so it never needs the idle BLAS threads
    that fork does not copy.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            frames = source.frames(start - 1, start + len(out))
            stats = itertools.islice(_per_frame(frames), 1, None)
            out[:] = np.reshape([(s.avg_intensity, s.hsv_delta) for s in stats], out.shape)
            status = 0
        finally:
            os._exit(status)
    return pid


def _reap(children: list) -> None:
    """Kill and wait for every child still in ``children``, then empty it."""
    while children:
        pid = children.pop()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def fps_fraction(text: str) -> tuple[int, int]:
    """Parse '30', '30/1' or '30000/1001' into an (num, den) pair."""
    frac = Fraction(text)
    return frac.numerator, frac.denominator
