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

Each thread runs one per-frame loop, which makes one compiled pass over a
run of frames' pixels (``_framestats.c``, called through ``ctypes``, which
releases the interpreter lock for the call). The pass also sums each frame's
changes exactly, in integers, and runs an AVX2 body on x86-64 where the CPU
has one. The library is built on first use with the C compiler Python was
built with, and cached in the ``__pycache__`` folder beside this module.
Where no library can be built or loaded there, one loop in the calling
thread runs the plain numpy functions ``_frame_hsv``, ``_hsv_delta`` and
``compute_intensity``, which hold the interpreter lock, take the same
integer sums, give the same statistics bit for bit and remain the oracle for
the compiled pass.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
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


class FrameSource:
    """Ordered, single-pass iterator of frames with a known FrameSpec.

    ``frames(start, stop)`` gives frames ``start:stop`` from ``reader``,
    which reads those alone. A source built without one has only its
    iterator, so ``stream_stats`` computes it in one thread.
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
        return self._reader(start, stop)


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


# bytes of the frames that go to one compiled call, each frame counted as
# its pixels and 256 bytes for its objects, address and row of sums; a run
# holds at least one frame
_RUN_BYTES = 1 << 19


class _WorkArea:
    """The compiled pass's two HSV sets for one stream of frames of
    ``pixels`` pixels, and how many frames it has ``seen``. One stream's loop
    builds this once: a fresh frame-sized array is a new mapping whose pages
    fault again on every frame. ``run`` is how many frames go to one call."""

    def __init__(self, pixels: int):
        self.pixels, self.seen = pixels, 0
        # hue, saturation and value of set 0, then of set 1
        self.hsv = [np.empty(pixels, dtype) for _ in range(2)
                    for dtype in (np.float32, np.float32, np.uint8)]
        self.sets = (ctypes.c_void_p * 6)(*[a.ctypes.data for a in self.hsv])
        self.table = _hue_table().ctypes.data
        self.run = max(1, _RUN_BYTES // (3 * pixels + 256))


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
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                       ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    kernel.restype = None
    return kernel


def _run_stats(kernel, work: _WorkArea, run: list) -> Iterator[FrameStats]:
    """FrameStats of ``run``, the frames after those ``work`` has seen, from
    one call of ``kernel``, which is passed each frame's pixels without a
    copy. It takes the exact integer sums of the changes that ``_hsv_delta``
    takes, so ``_delta_score`` gives the same double.
    """
    frames = (ctypes.c_char_p * len(run))(*[
        frame.pixels if type(frame.pixels) is bytes
        else np.frombuffer(frame.pixels, dtype=np.uint8).ctypes.data for frame in run])
    rows = np.empty((len(run), 4), dtype=np.int64)
    n, seen = work.pixels, work.seen
    # the stream's frame i writes HSV set i % 2, and has a previous one from i = 1
    kernel(frames, len(run), n, work.sets, seen % 2, seen > 0, work.table, rows.ctypes.data)
    work.seen += len(run)
    for i, (frame, (total, hue, sat, val)) in enumerate(zip(run, rows.tolist()), seen):
        delta = _delta_score(hue, sat, val, n) if i else None
        yield FrameStats(index=frame.index, avg_intensity=total / (3 * n), hsv_delta=delta)


def stream_stats(frames) -> Iterator[FrameStats]:
    """FrameStats per frame, in order, from one pass over ``frames``.

    Where ``_kernel`` gives the compiled pass, a FrameSource with a reader is
    split into contiguous frame ranges, one per CPU in this process's
    affinity mask, each after the first computed by a worker thread (see
    ``_split_stats``). Anything else runs the same per-frame loop in the
    calling thread. The statistics are the same bit for bit either way.
    """
    if (isinstance(frames, FrameSource) and frames._reader is not None
            and hasattr(os, "sched_getaffinity") and _kernel() is not None):
        parts = min(len(os.sched_getaffinity(0)), frames.total_frames)
        if parts > 1:
            total = frames.total_frames
            return _split_stats(frames, [total * k // parts for k in range(parts + 1)])
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
    """The per-frame loop: one call of the compiled pass a run of frames,
    or, where ``_kernel`` gives none, the numpy functions a frame, with the
    same results. The first frame's size sizes the compiled pass's work
    area. A frame that fails ``_frame_bytes``, or an error from ``frames``,
    raises after the stats of every frame before it: the run so far first.
    """
    kernel = _kernel()
    if kernel is None:
        first = prev = None
        for frame in frames:
            first = _frame_bytes(frame, first)
            hsv = _frame_hsv(frame.pixels)
            delta = None if prev is None else _hsv_delta(prev, hsv)
            yield FrameStats(index=frame.index, avg_intensity=compute_intensity(frame),
                             hsv_delta=delta)
            prev = hsv
        return
    work, run = None, []
    try:
        for frame in frames:
            size = _frame_bytes(frame, work and 3 * work.pixels)
            work = work or _WorkArea(size // 3)
            run.append(frame)
            if len(run) == work.run:
                full, run = run, []
                yield from _run_stats(kernel, work, full)
    except Exception:
        if run:
            yield from _run_stats(kernel, work, run)
        raise
    if run:
        yield from _run_stats(kernel, work, run)


def _split_stats(source: FrameSource, bounds: list) -> Iterator[FrameStats]:
    """Stats of ``source`` with frames ``bounds[k]:bounds[k + 1]`` computed
    by worker thread k for k >= 1, and the first range by this thread.

    Worker k reads frames ``bounds[k] - 1`` to ``bounds[k + 1]`` through
    ``source.frames``: the frame before its range seeds its first delta, and
    its stats are dropped. A worker keeps its range's stats, or nothing when
    its loop raises. This thread's one loop computes its own range, joins
    every worker and yields their stats; when one failed or did not start,
    the loop goes on over every later frame, so bad input raises the same
    error after the same stats as one thread would. On every path, also on
    early close or error, the workers are told to stop, which each checks
    before it reads a frame, and joined.
    """
    _hue_table()  # built once, not by each worker
    stop = threading.Event()
    done = [None] * (len(bounds) - 2)  # each worker's stats, once it has its whole range

    def work(k: int, start: int, end: int) -> None:
        frames = itertools.takewhile(lambda _: not stop.is_set(), source.frames(start - 1, end))
        try:
            stats = list(_per_frame(frames))[1:]
        except Exception:  # this thread's loop computes the range again and raises there
            return
        if len(stats) == end - start:
            done[k] = stats

    def own_frames():
        # this thread's range, then, if any worker failed, every later frame
        frames = iter(source)
        yield from itertools.islice(frames, bounds[1])
        for worker in workers:
            worker.join()
        if None in done:
            yield from frames

    workers = []
    try:
        for k, (start, end) in enumerate(zip(bounds[1:-1], bounds[2:])):
            worker = threading.Thread(target=work, args=(k, start, end))
            try:
                worker.start()
            except RuntimeError:
                break  # the ranges left are computed by this thread
            workers.append(worker)
        yield from _per_frame(own_frames())
        if None not in done:
            yield from itertools.chain(*done)
    finally:
        stop.set()
        for worker in workers:
            worker.join()


def fps_fraction(text: str) -> tuple[int, int]:
    """Parse '30', '30/1' or '30000/1001' into an (num, den) pair."""
    frac = Fraction(text)
    return frac.numerator, frac.denominator
