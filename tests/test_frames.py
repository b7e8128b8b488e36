import array
import hashlib
import itertools
import os
import random
import struct
import threading

import numpy as np
import pytest

from vidscore import cli, pipeline
from vidscore import frames as frames_module
from vidscore.errors import MalformedSourceError, SourceNotFoundError, VidscoreError
from vidscore.frames import Frame, FrameSource, open_frame_source, stream_stats
from vidscore.scenes import FrameSpec

from conftest import exact_frame_stats, needs_cc, rgb_to_hsv, solid_frame, write_ppm


def frame_of(rgb, width=8, height=6, index=0):
    return Frame(index=index, pixels=solid_frame(width, height, rgb))


def content_delta(prev, curr):
    """The HSV delta stream_stats reports for curr following prev."""
    return list(stream_stats([prev, curr]))[1].hsv_delta


def uint16_view(pixels):
    """``pixels`` as a memoryview of two-byte items, half as many as its bytes."""
    return memoryview(array.array("H", pixels))


def random_frame(rng, width=8, height=6, index=0):
    return Frame(
        index=index,
        pixels=bytes(rng.randrange(256) for _ in range(3 * width * height)),
    )


def intensities(monkeypatch, frame):
    """``frame``'s avg_intensity from stream_stats on the compiled pass and
    on the numpy path."""
    compiled = next(stream_stats([frame])).avg_intensity
    with monkeypatch.context() as patch:
        patch.setattr(frames_module, "_kernel", lambda: None)
        return compiled, next(stream_stats([frame])).avg_intensity


class TestIntensity:
    def test_all_black_is_zero(self, monkeypatch):
        assert intensities(monkeypatch, frame_of((0, 0, 0))) == (0.0, 0.0)

    def test_all_white_is_full_scale(self, monkeypatch):
        assert intensities(monkeypatch, frame_of((255, 255, 255))) == (255.0, 255.0)

    def test_half_black_half_white(self, monkeypatch):
        pixels = solid_frame(8, 3, (0, 0, 0)) + solid_frame(8, 3, (255, 255, 255))
        assert intensities(monkeypatch, Frame(index=0, pixels=pixels)) == (127.5, 127.5)

    def test_permutation_invariant(self, monkeypatch):
        rng = random.Random(11)
        frame = random_frame(rng)
        triples = [frame.pixels[i : i + 3] for i in range(0, len(frame.pixels), 3)]
        rng.shuffle(triples)
        shuffled = Frame(index=0, pixels=b"".join(triples))
        assert intensities(monkeypatch, frame) == pytest.approx(
            intensities(monkeypatch, shuffled))

    def test_all_white_past_where_a_uint32_sum_wraps(self, monkeypatch):
        side = 2400  # 5.76 M pixels, whose channel sum passes 2**32
        assert 3 * 255 * side * side >= 2**32
        frame = Frame(index=0, pixels=b"\xff" * (3 * side * side))
        assert intensities(monkeypatch, frame) == (255.0, 255.0)

    @pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**24 + 2**18 + 3])
    def test_exact_sum_of_full_scale_values(self, size):
        values = np.full(size, 255, dtype=np.uint8)
        assert frames_module._exact_sum(values) == 255 * size

    def test_value_term_over_several_sum_blocks(self):
        # 300 x 300 pixels span one whole block of the value sum and a tail;
        # black to white changes only value, by 255 at every pixel
        black, white = frame_of((0, 0, 0), 300, 300), frame_of((255, 255, 255), 300, 300)
        assert content_delta(black, white) == content_delta(white, black) == 85.0


class TestRgbToHsv:
    def test_black(self):
        assert rgb_to_hsv((0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_pure_red(self):
        assert rgb_to_hsv((255, 0, 0)) == (0.0, 255.0, 255.0)

    def test_white(self):
        assert rgb_to_hsv((255, 255, 255)) == (0.0, 0.0, 255.0)

    def test_channels_in_range(self):
        rng = random.Random(3)
        for _ in range(500):
            h, s, v = rgb_to_hsv((rng.randrange(256), rng.randrange(256), rng.randrange(256)))
            assert 0.0 <= h < 256.0
            assert 0.0 <= s <= 255.0
            assert 0.0 <= v <= 255.0


def naive_content_delta(a: Frame, b: Frame) -> float:
    """Independent oracle: per-pixel double loop over channels."""
    dh_total = ds_total = dv_total = 0.0
    count = len(a.pixels) // 3
    for i in range(count):
        ha, sa, va = rgb_to_hsv(tuple(a.pixels[3 * i : 3 * i + 3]))
        hb, sb, vb = rgb_to_hsv(tuple(b.pixels[3 * i : 3 * i + 3]))
        dh = abs(ha - hb)
        dh_total += min(dh, 256.0 - dh)
        ds_total += abs(sa - sb)
        dv_total += abs(va - vb)
    return (dh_total + ds_total + dv_total) / (3.0 * count)


class TestContentDelta:
    def test_identical_frames_zero(self):
        rng = random.Random(5)
        frame = random_frame(rng)
        assert content_delta(frame, frame) == 0.0

    def test_black_vs_white(self):
        black = frame_of((0, 0, 0))
        white = frame_of((255, 255, 255))
        assert content_delta(black, white) == pytest.approx(85.0)

    def test_matches_naive_oracle_on_random_frames(self):
        rng = random.Random(99)
        for _ in range(10):
            a, b = random_frame(rng), random_frame(rng)
            assert content_delta(a, b) == pytest.approx(
                naive_content_delta(a, b), abs=2e-3
            )

    def test_matches_naive_oracle_on_channel_ties(self):
        # every pattern of equal, maximal and minimal channels, greys included
        levels = (0, 7, 200, 255)
        colours = [(r, g, b) for r in levels for g in levels for b in levels]
        a = Frame(index=0, pixels=b"".join(bytes(c) for c in colours))
        for shift in (1, 5, 21):
            rotated = colours[shift:] + colours[:shift]
            b = Frame(index=1, pixels=b"".join(bytes(c) for c in rotated))
            assert content_delta(a, b) == pytest.approx(
                naive_content_delta(a, b), abs=2e-3
            )

    def test_value_term_is_exact_on_greys(self):
        # greys have hue and saturation 0, so the delta is the value term alone:
        # an exact integer sum over the pixels, divided once
        rng = random.Random(13)
        for count in (35, 627, 1440):
            a = [rng.randrange(256) for _ in range(count)]
            b = [rng.randrange(256) for _ in range(count)]
            total = sum(abs(x - y) for x, y in zip(a, b))
            delta = content_delta(
                Frame(0, bytes(x for x in a for _ in "rgb")),
                Frame(1, bytes(x for x in b for _ in "rgb")),
            )
            assert delta == total / count / 3.0

    def test_symmetry(self):
        rng = random.Random(42)
        a, b = random_frame(rng), random_frame(rng)
        assert content_delta(a, b) == pytest.approx(content_delta(b, a))

    def test_range(self):
        rng = random.Random(77)
        for _ in range(20):
            d = content_delta(random_frame(rng), random_frame(rng))
            assert 0.0 <= d <= 255.0


class TestFrameSource:
    def test_raw_stream_roundtrip(self, tmp_path):
        frames = [solid_frame(4, 3, (i, i, i)) for i in range(10)]
        path = tmp_path / "clip.rgb24"
        path.write_bytes(b"".join(frames))
        (tmp_path / "clip.hdr").write_text("width=4 height=3 fps_num=30 fps_den=1\n")

        source = open_frame_source(str(path))
        assert source.total_frames == 10
        out = list(source)
        assert [f.index for f in out] == list(range(10))
        assert out[3].pixels == frames[3]

    def test_duration_arithmetic(self, tmp_path):
        path = tmp_path / "clip.rgb24"
        path.write_bytes(solid_frame(4, 3, (0, 0, 0)) * 300)
        (tmp_path / "clip.hdr").write_text("width=4 height=3 fps_num=30 fps_den=1\n")
        source = open_frame_source(str(path))
        assert source.total_frames == 300
        assert source.spec.timestamp(source.total_frames) == pytest.approx(10.0)

    def test_stream_not_multiple_of_frame_size(self, tmp_path):
        path = tmp_path / "clip.rgb24"
        path.write_bytes(b"\x00" * 10)  # 10 bytes, 2x2 frames need 12
        (tmp_path / "clip.hdr").write_text("width=2 height=2 fps_num=30 fps_den=1\n")
        with pytest.raises(MalformedSourceError):
            open_frame_source(str(path))

    def test_key_repeated_in_the_header(self, tmp_path):
        path = tmp_path / "clip.rgb24"
        path.write_bytes(b"\x00" * 72)  # 3 frames of 4x2, or 6 of 2x2
        (tmp_path / "clip.hdr").write_text("width=4 height=2 fps_num=30 fps_den=1 width=2\n")
        with pytest.raises(MalformedSourceError, match="width given twice"):
            open_frame_source(str(path))

    @pytest.mark.parametrize("header, token", [
        ("width=2 height=2 fps_num=30 fps_den=1 pix_fmt=yuv420p", "pix_fmt=yuv420p"),
        ("width=2 height=2 fps_num=30 fps_den=1 interlaced", "interlaced"),
    ], ids=["unknown key", "token without a value"])
    def test_header_token_that_is_not_a_known_key(self, tmp_path, header, token):
        path = tmp_path / "clip.rgb24"
        path.write_bytes(b"\x00" * 24)  # 2 frames of 2x2 RGB24
        (tmp_path / "clip.hdr").write_text(header + "\n")
        with pytest.raises(MalformedSourceError, match=f"unknown token '{token}'"):
            open_frame_source(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SourceNotFoundError):
            open_frame_source(str(tmp_path / "nope.rgb24"))

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "clip.rgb24"
        path.write_bytes(b"")
        with pytest.raises(SourceNotFoundError):
            open_frame_source(str(path))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SourceNotFoundError):
            open_frame_source(str(tmp_path), fps=(30, 1))

    def test_non_numeric_ppm_size(self, tmp_path):
        (tmp_path / "0000.ppm").write_bytes(b"P6\nfour 3\n255\n" + bytes(36))
        with pytest.raises(MalformedSourceError):
            open_frame_source(str(tmp_path), fps=(25, 1))

    @pytest.mark.parametrize("size", [b"-2 2", b"2 -2", b"0 2", b"-2 -2"])
    def test_ppm_size_below_one_is_a_bad_frame_size(self, tmp_path, size):
        (tmp_path / "0000.ppm").write_bytes(b"P6\n" + size + b"\n255\n" + bytes(12))
        with pytest.raises(MalformedSourceError, match="bad frame size"):
            open_frame_source(str(tmp_path), fps=(25, 1))

    @pytest.mark.parametrize("size", [b"32768 32768", b"1073741824 1"])
    def test_ppm_size_of_2_to_the_30_pixels_is_refused(self, tmp_path, size):
        (tmp_path / "0000.ppm").write_bytes(b"P6\n" + size + b"\n255\n" + bytes(12))
        with pytest.raises(MalformedSourceError, match=r"is 2\*\*30 pixels or more"):
            open_frame_source(str(tmp_path), fps=(25, 1))

    def test_a_frame_below_2_to_the_30_pixels_is_taken(self):
        assert FrameSpec(32768, 32767, 30, 1).frame_bytes == 3 * 32768 * 32767

    def test_ppm_comment_running_to_end_of_file_is_a_truncated_header(self, tmp_path):
        (tmp_path / "0000.ppm").write_bytes(b"P6\n2 2 #c")
        with pytest.raises(MalformedSourceError, match="truncated PPM header"):
            open_frame_source(str(tmp_path), fps=(25, 1))

    def test_image_sequence(self, tmp_path):
        for i, level in enumerate([10, 20, 30]):
            write_ppm(str(tmp_path / f"{i:04d}.ppm"), 4, 3, solid_frame(4, 3, (level,) * 3))
        source = open_frame_source(str(tmp_path), fps=(25, 1))
        frames = list(source)
        assert source.total_frames == 3
        assert [entry.avg_intensity for entry in stream_stats(frames)] == [10.0, 20.0, 30.0]

    def test_two_files_numbering_one_frame(self, tmp_path):
        for name in ("frame1.ppm", "frame001.ppm", "frame2.ppm"):
            write_ppm(str(tmp_path / name), 4, 3, solid_frame(4, 3, (10, 20, 30)))
        with pytest.raises(MalformedSourceError, match="frame001.ppm and frame1.ppm"):
            open_frame_source(str(tmp_path), fps=(25, 1))

    def holed_frames(self, directory):
        """Frames 0000-0029 and 0031-0059: frame 30 is missing."""
        directory.mkdir()
        for i in [*range(30), *range(31, 60)]:
            write_ppm(str(directory / f"{i:04d}.ppm"), 4, 3, solid_frame(4, 3, (i, i, i)))
        return str(directory)

    def test_a_missing_frame_number_is_malformed(self, tmp_path):
        # every frame after the hole would be timed one frame period early
        hole = "no frame 30 between 0029.ppm and 0031.ppm"
        with pytest.raises(MalformedSourceError, match=hole):
            open_frame_source(self.holed_frames(tmp_path / "frames"), fps=(25, 1))

    def test_a_missing_frame_number_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["analyze", "--source", self.holed_frames(tmp_path / "frames"), "--fps", "25",
                "--output-dir", str(out)]
        assert cli.main(argv) == 2
        assert "no frame 30" in capsys.readouterr().err
        assert not (out / "scenes.json").exists()

    def test_an_image_directory_that_cannot_be_listed_exits_2(self, tmp_path, monkeypatch,
                                                               capsys):
        # root lists a folder whatever its mode, so the refusal is patched in
        folder = tmp_path / "frames"
        folder.mkdir()
        write_ppm(str(folder / "0000.ppm"), 4, 3, solid_frame(4, 3, (9, 9, 9)))
        listdir = os.listdir

        def refuse(path="."):
            if os.fspath(path) == str(folder):
                raise PermissionError(13, "Permission denied", str(folder))
            return listdir(path)

        monkeypatch.setattr(os, "listdir", refuse)
        out = tmp_path / "out"
        argv = ["analyze", "--source", str(folder), "--fps", "25", "--output-dir", str(out)]
        assert cli.main(argv) == 2
        assert "cannot read image directory" in capsys.readouterr().err
        assert not (out / "scenes.json").exists()

    def test_a_raw_stream_that_cannot_be_read_after_opening_exits_2(self, tmp_path,
                                                                    monkeypatch, capsys):
        write_source(tmp_path, noisy_clip(4, "cut"), "raw")
        opened = pipeline.open_frame_source

        def open_then_remove(source, fps):
            opened_source = opened(source, fps)
            os.remove(source)
            return opened_source

        monkeypatch.setattr(pipeline, "open_frame_source", open_then_remove)
        out = tmp_path / "out"
        argv = ["analyze", "--source", str(tmp_path / "clip.rgb24"), "--output-dir", str(out)]
        assert cli.main(argv) == 2
        assert "cannot read video" in capsys.readouterr().err
        assert not (out / "scenes.json").exists()


class TestStreamStats:
    def test_streaming_matches_buffered(self):
        rng = random.Random(8)
        frames = [random_frame(rng, index=i) for i in range(6)]
        streamed = list(stream_stats(iter(frames)))
        buffered = list(stream_stats(frames))
        assert streamed == buffered

    def test_first_frame_has_no_delta(self):
        stats = list(stream_stats([frame_of((9, 9, 9))]))
        assert stats[0].hsv_delta is None
        assert stats[0].avg_intensity == 9.0

    def test_delta_matches_pairwise_function(self):
        rng = random.Random(21)
        frames = [random_frame(rng, index=i) for i in range(4)]
        stats = list(stream_stats(frames))
        for i in range(1, 4):
            assert stats[i].hsv_delta == pytest.approx(
                content_delta(frames[i - 1], frames[i])
            )

    def test_a_later_frame_of_another_size_is_malformed(self):
        frames = iter([Frame(index=0, pixels=bytes(12)), Frame(index=1, pixels=bytes(27))])
        with pytest.raises(MalformedSourceError, match="frame 1: 27 bytes"):
            list(stream_stats(frames))

    @pytest.mark.parametrize("size", [13, 0], ids=["partial pixel", "empty"])
    def test_a_first_frame_that_is_not_whole_pixels_is_malformed(self, size):
        with pytest.raises(MalformedSourceError, match=f"frame 0: {size} bytes"):
            list(stream_stats([Frame(index=0, pixels=bytes(size))]))

    @pytest.mark.parametrize("kind", [bytearray, memoryview, uint16_view],
                             ids=["bytearray", "memoryview", "memoryview of uint16"])
    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_pixels_in_any_bytes_like_object(self, monkeypatch, kind, path):
        clip = noisy_clip(4, "cut")
        expected = list(stream_stats(clip))
        if path == "numpy":
            monkeypatch.setattr(frames_module, "_kernel", lambda: None)
        held = [Frame(frame.index, kind(frame.pixels)) for frame in clip]
        assert list(stream_stats(held)) == expected

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_a_later_frame_of_as_many_wider_items_is_malformed(self, monkeypatch, path):
        # 12 bytes, then 12 items of two bytes each
        frames = iter([Frame(index=0, pixels=bytes(12)),
                       Frame(index=1, pixels=uint16_view(bytes(24)))])
        if path == "numpy":
            monkeypatch.setattr(frames_module, "_kernel", lambda: None)
        with pytest.raises(MalformedSourceError, match="frame 1: 24 bytes"):
            list(stream_stats(frames))

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_pixels_not_in_one_contiguous_buffer_are_malformed(self, monkeypatch, path):
        if path == "numpy":
            monkeypatch.setattr(frames_module, "_kernel", lambda: None)
        frames = [Frame(index=0, pixels=memoryview(bytes(range(48)))[::2])]
        with pytest.raises(MalformedSourceError, match="frame 0: pixels not in one contiguous"):
            list(stream_stats(frames))

    def test_stats_in_range(self):
        rng = random.Random(34)
        frames = [random_frame(rng, index=i) for i in range(8)]
        for entry in stream_stats(frames):
            assert 0.0 <= entry.avg_intensity <= 255.0
            if entry.hsv_delta is not None:
                assert 0.0 <= entry.hsv_delta <= 255.0


def noisy_clip(total, transition, width=12, height=8):
    """``total`` noisy frames with a cut, or the bottom of a fade through
    black, at the middle frame, where a split over two CPUs starts the
    worker's range."""
    noise = np.random.default_rng(total).integers(0, 40, size=(total, height * width, 3))
    middle = total // 2
    clip = []
    for i in range(total):
        if transition == "cut":
            base = np.array((200, 30, 30) if i < middle else (30, 60, 210))
        else:
            base = np.array((180, 140, 60)) * abs(i - middle) // max(middle, 1)
        pixels = np.clip(base + noise[i], 0, 255).astype(np.uint8)
        clip.append(Frame(index=i, pixels=pixels.tobytes()))
    return clip


def write_source(directory, clip, kind, width=12, height=8):
    """Write ``clip`` as a raw stream or a PPM directory and open it, or
    make a source of ``clip``'s iterator alone, which has no reader."""
    if kind == "iterator":
        return FrameSource(FrameSpec(width, height, 30, 1), len(clip), iter(clip))
    if kind == "raw":
        path = directory / "clip.rgb24"
        path.write_bytes(b"".join(frame.pixels for frame in clip))
        (directory / "clip.hdr").write_text(
            f"width={width} height={height} fps_num=30 fps_den=1\n")
        return open_frame_source(str(path))
    for frame in clip:
        write_ppm(str(directory / f"{frame.index:04d}.ppm"), width, height, frame.pixels)
    return open_frame_source(str(directory), fps=(30, 1))


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count stream_stats sees; returns the threads it starts."""
    started, real_start = [], threading.Thread.start

    def counting_start(thread):
        real_start(thread)
        started.append(thread)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)),
                            raising=False)
        return started

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return set_cpus


def assert_no_worker_left():
    assert threading.enumerate() == [threading.main_thread()]


def stats_until_error(stats):
    """The stats yielded before the error, and the error's class and message."""
    seen = []
    with pytest.raises(VidscoreError) as info:
        for entry in stats:
            seen.append(entry)
    return seen, type(info.value), str(info.value)


def in_main_thread():
    return threading.current_thread() is threading.main_thread()


def fail_workers(monkeypatch):
    """Make the compiled pass raise in every thread but the main one. Returns
    a list that gains one item per frame the main thread computes, on either
    path, so a test can tell that the workers' ranges were computed there."""
    computed, kernel, frame_hsv = [], frames_module._kernel(), frames_module._frame_hsv

    def failing(*args):
        if not in_main_thread():
            raise RuntimeError("worker failed")
        computed.extend([None] * args[1])  # a run's frame count
        return kernel(*args)

    def counted(pixels):
        computed.append(None)
        return frame_hsv(pixels)

    monkeypatch.setattr(frames_module, "_kernel", lambda: None if kernel is None else failing)
    monkeypatch.setattr(frames_module, "_frame_hsv", counted)
    return computed


def logged_reads(monkeypatch, source):
    """Log ``(thread, start, stop)`` for each call of ``source``'s reader;
    a Thread, unlike its ident, is never reused."""
    reads, reader = [], source._reader

    def logged(start, stop, buffer):
        reads.append((threading.current_thread(), start, stop))
        return reader(start, stop, buffer)

    monkeypatch.setattr(source, "_reader", logged)
    return reads


@pytest.fixture
def numpy_path(monkeypatch):
    """Take the run's sums with the numpy functions, as where no compiled
    pass can be built. Tests without this fixture take the compiled pass
    wherever a C compiler is on the path."""
    monkeypatch.setattr(frames_module, "_kernel", lambda: None)


@pytest.fixture
def plain_body(monkeypatch, plain_kernel):
    """Run the compiled pass's plain body, which a CPU without AVX2 takes,
    wherever this CPU picks another."""
    monkeypatch.setattr(frames_module, "_kernel", lambda: plain_kernel)


def split_cases(test):
    """The cases of the split pin, which runs on both paths."""
    for mark in (pytest.mark.parametrize("count", [1, 2, 3]),
                 pytest.mark.parametrize("total", [1, 2, 3, 4, 5]),
                 pytest.mark.parametrize("transition", ["cut", "fade"]),
                 pytest.mark.parametrize("kind", ["raw", "ppm", "iterator"])):
        test = mark(test)
    return test


def malformed_frame_cases(test):
    """The cases of a PPM directory with one bad frame, in each thread's range."""
    for mark in (pytest.mark.parametrize("bad_bytes", [
                     b"P6\n12 8\n255\n" + bytes(10),
                     b"P6\n4 3\n255\n" + bytes(36),
                     b"P5\n12 8\n255\n" + bytes(96),
                 ], ids=["truncated pixels", "other size", "not P6"]),
                 pytest.mark.parametrize("bad_index", [1, 4, 7], ids=[
                     "parent range", "first child range", "second child range"])):
        test = mark(test)
    return test


class TestSplitStats:
    """A FrameSource's stats are split across worker threads, one frame
    range per CPU, and must match the loop in one thread bit for bit."""

    @pytest.fixture(autouse=True)
    def runs_of_three(self, monkeypatch):
        """Runs of three 12x8 frames: the bad frames below fall inside runs."""
        monkeypatch.setattr(frames_module, "_RUN_BYTES", 1000)
        assert frames_module._WorkArea(12 * 8).run == 3

    @split_cases
    def test_split_matches_serial_bit_for_bit(self, tmp_path, cpus, kind, transition,
                                              total, count):
        started = cpus(count)
        clip = noisy_clip(total, transition)
        split = list(stream_stats(write_source(tmp_path, clip, kind)))
        assert split == list(stream_stats(clip))
        # a reader-less source and the numpy path, which holds the lock, start no thread
        threads = kind != "iterator" and frames_module._kernel() is not None
        assert len(started) == (min(count, total) - 1 if threads else 0)
        assert_no_worker_left()

    @split_cases
    def test_split_matches_serial_bit_for_bit_on_the_numpy_path(
            self, tmp_path, cpus, numpy_path, kind, transition, total, count):
        self.test_split_matches_serial_bit_for_bit(tmp_path, cpus, kind, transition, total, count)

    @malformed_frame_cases
    def test_malformed_frame_fails_as_the_serial_loop_does(self, tmp_path, cpus,
                                                          bad_index, bad_bytes):
        started = cpus(3)  # frames 0-2 in the main thread, 3-5 and 6-8 in the workers
        write_source(tmp_path, noisy_clip(9, "cut"), "ppm")
        (tmp_path / f"{bad_index:04d}.ppm").write_bytes(bad_bytes)
        serial = stats_until_error(stream_stats(iter(open_frame_source(str(tmp_path), (30, 1)))))
        split = stats_until_error(stream_stats(open_frame_source(str(tmp_path), (30, 1))))
        assert split == serial
        assert len(serial[0]) == bad_index
        assert len(started) == (2 if frames_module._kernel() is not None else 0)
        assert_no_worker_left()

    @malformed_frame_cases
    def test_malformed_frame_fails_as_the_serial_loop_does_on_the_numpy_path(
            self, tmp_path, cpus, numpy_path, bad_index, bad_bytes):
        self.test_malformed_frame_fails_as_the_serial_loop_does(tmp_path, cpus, bad_index,
                                                                bad_bytes)

    def test_a_killed_child_leaves_its_range_to_the_parent(self, tmp_path, cpus, monkeypatch):
        started = cpus(3)
        clip = noisy_clip(9, "fade")
        serial = list(stream_stats(clip))
        computed = fail_workers(monkeypatch)
        assert list(stream_stats(write_source(tmp_path, clip, "raw"))) == serial
        assert len(computed) == len(clip)  # the workers' ranges too
        assert len(started) == (0 if frames_module._kernel() is None else 2)
        assert_no_worker_left()

    def test_a_killed_child_leaves_its_range_to_the_parent_on_the_numpy_path(
            self, tmp_path, cpus, monkeypatch, numpy_path):
        self.test_a_killed_child_leaves_its_range_to_the_parent(tmp_path, cpus, monkeypatch)

    def test_the_parent_continues_its_one_loop_after_a_killed_child(self, tmp_path, cpus,
                                                                    monkeypatch):
        cpus(3)
        clip = noisy_clip(9, "cut")
        serial = list(stream_stats(clip))
        built, step = [], frames_module._WorkArea

        def counted(*args):  # work areas built in the main thread
            if in_main_thread():
                built.append(args)
            return step(*args)

        computed = fail_workers(monkeypatch)
        monkeypatch.setattr(frames_module, "_WorkArea", counted)
        source = write_source(tmp_path, clip, "raw")
        reads = logged_reads(monkeypatch, source)
        assert list(stream_stats(source)) == serial
        assert len(computed) == len(clip)
        # one work area, whose HSV of frame 2 gives frame 3 its delta; the
        # numpy path reads the whole clip in the main thread
        ranges = [(0, 9)] if frames_module._kernel() is None else [(0, 3), (3, 9)]
        assert [(start, stop) for thread, start, stop in reads
                if thread is threading.main_thread()] == ranges
        assert built == [(len(clip[0].pixels) // 3,)]
        assert_no_worker_left()

    def test_the_parent_continues_its_one_loop_after_a_killed_child_on_the_numpy_path(
            self, tmp_path, cpus, monkeypatch, numpy_path):
        self.test_the_parent_continues_its_one_loop_after_a_killed_child(tmp_path, cpus,
                                                                         monkeypatch)

    @pytest.mark.parametrize("path", ["split", "bare iterable", "killed child",
                                      "killed child on the numpy path"])
    def test_reused_buffers_give_the_deltas_of_fresh_ones(self, tmp_path, cpus, monkeypatch,
                                                          path):
        clip = noisy_clip(9, "cut")
        assert len({frame.pixels for frame in clip}) == len(clip)
        expected = [delta for _, delta in exact_frame_stats(clip)]
        started, computed = cpus(3), []
        if path == "bare iterable":
            stats = stream_stats(iter(clip))
        else:
            if path == "killed child on the numpy path":
                monkeypatch.setattr(frames_module, "_kernel", lambda: None)
            if path.startswith("killed child"):
                computed = fail_workers(monkeypatch)
            stats = stream_stats(write_source(tmp_path, clip, "raw"))
        assert [entry.hsv_delta for entry in stats] == expected
        assert len(computed) == (len(clip) if path.startswith("killed child") else 0)
        assert len(started) == (2 if path in ("split", "killed child") else 0)
        assert_no_worker_left()

    def test_a_failed_thread_start_leaves_its_range_to_the_parent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)

        def no_start(_thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        clip = noisy_clip(7, "cut")
        assert list(stream_stats(write_source(tmp_path, clip, "ppm"))) == list(stream_stats(clip))

    @needs_cc
    def test_closing_early_leaves_no_child(self, tmp_path, cpus, monkeypatch):
        started = cpus(2)
        clip = noisy_clip(4000, "cut", width=1, height=1)
        kernel, yielded, in_worker = frames_module._kernel(), threading.Event(), []

        def gated(*args):  # the worker's calls wait until the main thread yielded a stat
            if not in_main_thread():
                yielded.wait(timeout=60)
                in_worker.append(args[1])
            return kernel(*args)

        monkeypatch.setattr(frames_module, "_kernel", lambda: gated)
        stats = stream_stats(write_source(tmp_path, clip, "raw", width=1, height=1))
        assert next(stats).index == 0
        yielded.set()
        stats.close()
        assert len(started) == 1
        assert_no_worker_left()
        assert sum(in_worker) < len(clip) // 2  # the worker stopped between runs

    def test_a_child_range_larger_than_a_pipe_buffer(self, tmp_path, cpus):
        # 5001 frames in the worker, in many runs
        started = cpus(2)
        clip = noisy_clip(10001, "cut", width=1, height=1)
        split = list(stream_stats(write_source(tmp_path, clip, "raw", width=1, height=1)))
        assert split == list(stream_stats(clip))
        assert len(started) == 1
        assert_no_worker_left()

    @needs_cc
    @pytest.mark.parametrize("kind", ["raw", "ppm"])
    def test_each_child_reads_only_its_own_range(self, tmp_path, cpus, monkeypatch, kind):
        started = cpus(3)  # frames 0-2 in the main thread, 3-5 and 6-8 in the workers
        clip = noisy_clip(9, "cut")
        source = write_source(tmp_path, clip, kind)
        reads = logged_reads(monkeypatch, source)
        # every thread reads into its run buffer, and no frame becomes an object
        monkeypatch.setattr(frames_module, "Frame", lambda *args, **kwargs: pytest.fail("a Frame"))
        assert list(stream_stats(source)) == list(stream_stats(clip))
        by_thread = {thread: [(a, b) for t, a, b in reads if t is thread] for thread, *_ in reads}
        # each worker reads the frame before its range, whose HSV seeds its first delta
        assert by_thread == {threading.main_thread(): [(0, 3)], started[0]: [(2, 6)],
                             started[1]: [(5, 9)]}
        assert_no_worker_left()

    @pytest.mark.parametrize("kind", ["raw", "ppm"])
    def test_a_range_of_frames_is_the_range_of_a_pass(self, tmp_path, kind):
        clip = noisy_clip(5, "fade")
        source = write_source(tmp_path, clip, kind)
        size = len(clip[0].pixels)
        for start, stop in itertools.combinations_with_replacement(range(6), 2):
            for run in (1, 2, 5):  # frames a buffer holds
                buffer, read, counts = bytearray(run * size), b"", []
                for count in source._reader(start, stop, buffer):
                    read += buffer[:count * size]
                    counts.append(count)
                assert read == b"".join(frame.pixels for frame in clip[start:stop])
                assert counts == [min(run, stop - at) for at in range(start, stop, run)]
            fresh = write_source(tmp_path, clip, kind)
            assert list(itertools.islice(iter(fresh), start, stop)) == clip[start:stop]

    @pytest.mark.parametrize("kept", [1.5, 4, 7.5],
                             ids=["parent range", "first child range", "second child range"])
    def test_a_stream_truncated_after_opening_fails_as_the_serial_loop_does(self, tmp_path,
                                                                           cpus, kept):
        started = cpus(3)  # frames 0-2 in the main thread, 3-5 and 6-8 in the workers
        clip = noisy_clip(9, "cut")
        split_source = write_source(tmp_path, clip, "raw")
        serial_source = open_frame_source(str(tmp_path / "clip.rgb24"))
        # a worker whose range starts past the new end seeks there and fails
        os.truncate(tmp_path / "clip.rgb24", int(kept * len(clip[0].pixels)))
        serial = stats_until_error(stream_stats(iter(serial_source)))
        split = stats_until_error(stream_stats(split_source))
        assert split == serial
        assert serial[1:] == (MalformedSourceError,
                              f"{tmp_path / 'clip.rgb24'}: truncated at frame {int(kept)}")
        assert len(started) == 2
        assert_no_worker_left()

    @pytest.mark.parametrize("kept", [2.5, 4.5], ids=["parent range", "child range"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_a_stream_truncated_mid_run_gives_the_serial_stats_then_its_error(
            self, tmp_path, cpus, count, kept):
        # runs of frames 0-2, 3-5 and 6-8 in one thread; with three, the
        # main thread's one run holds frame 2, and the first worker's first
        # run frames 2-4
        started = cpus(count)
        clip = noisy_clip(9, "cut")
        split_source = write_source(tmp_path, clip, "raw")
        serial_source = open_frame_source(str(tmp_path / "clip.rgb24"))
        os.truncate(tmp_path / "clip.rgb24", int(kept * len(clip[0].pixels)))
        serial = stats_until_error(stream_stats(iter(serial_source)))
        split = stats_until_error(stream_stats(split_source))
        assert split == serial
        assert serial[0] == list(stream_stats(clip))[:int(kept)]
        assert serial[1:] == (MalformedSourceError,
                              f"{tmp_path / 'clip.rgb24'}: truncated at frame {int(kept)}")
        assert len(started) == (count - 1 if frames_module._kernel() is not None else 0)
        assert_no_worker_left()

    @pytest.mark.parametrize("kept", [2.5, 4.5], ids=["parent range", "child range"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_a_stream_truncated_mid_run_gives_the_serial_stats_then_its_error_on_the_numpy_path(
            self, tmp_path, cpus, numpy_path, count, kept):
        self.test_a_stream_truncated_mid_run_gives_the_serial_stats_then_its_error(
            tmp_path, cpus, count, kept)

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_ppm_directory_gives_its_raw_streams_stats(self, tmp_path, cpus, count):
        started = cpus(count)
        clip = noisy_clip(10, "fade")
        raw, ppm = tmp_path / "raw", tmp_path / "ppm"
        raw.mkdir()
        ppm.mkdir()
        assert (list(stream_stats(write_source(ppm, clip, "ppm")))
                == list(stream_stats(write_source(raw, clip, "raw"))))
        assert len(started) == (2 * (count - 1) if frames_module._kernel() is not None else 0)
        assert_no_worker_left()

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_ppm_directory_gives_its_raw_streams_stats_on_the_numpy_path(
            self, tmp_path, cpus, numpy_path, count):
        self.test_a_ppm_directory_gives_its_raw_streams_stats(tmp_path, cpus, count)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_a_raw_stream_removed_after_opening_cannot_be_read(self, tmp_path, cpus,
                                                               monkeypatch, count, path):
        cpus(count)
        if path == "numpy":
            monkeypatch.setattr(frames_module, "_kernel", lambda: None)
        source = write_source(tmp_path, noisy_clip(4, "cut"), "raw")
        os.remove(tmp_path / "clip.rgb24")
        with pytest.raises(MalformedSourceError, match=r"^cannot read video .*clip\.rgb24: "):
            list(stream_stats(source))
        assert_no_worker_left()


def every_colour_frames(order=None):
    """256 frames of 256x256 pixels; frame k holds every (g, b) at red k.

    Together they hold all 2**24 colours once. ``order`` permutes the pixels
    of every frame the same way.
    """
    g, b = np.divmod(np.arange(256 * 256), 256)
    gb = np.stack([g, b], axis=1).astype(np.uint8)
    if order is not None:
        gb = gb[order]
    pixels = np.empty((256 * 256, 3), dtype=np.uint8)
    pixels[:, 1:] = gb
    for red in range(256):
        pixels[:, 0] = red
        yield Frame(index=red, pixels=pixels.tobytes())


def stats_digest(stats):
    """sha256 of ``(avg_intensity, hsv_delta)`` pairs, packed as
    little-endian doubles, with no delta for the first frame."""
    digest = hashlib.sha256()
    for avg, delta in stats:
        digest.update(struct.pack("<d", avg))
        if delta is not None:
            digest.update(struct.pack("<d", delta))
    return digest.hexdigest()


# sha256 of every avg_intensity and hsv_delta, packed as little-endian
# doubles, over all 2**24 colours in raster and in shuffled pixel order.
EVERY_COLOUR_DIGEST = "bf8c572646cff4a2b6a29e17c575003898e5588a86e25d672ddce61c9a862751"


def test_stats_over_every_colour_are_pinned_bit_for_bit():
    # The oracle tests compare with a tolerance, and the golden scenes cannot
    # see a last-bit change in a delta: this pins the exact doubles.
    shuffled = np.random.default_rng(6).permutation(256 * 256)
    stats = [(s.avg_intensity, s.hsv_delta) for order in (None, shuffled)
             for s in stream_stats(every_colour_frames(order))]
    assert stats_digest(stats) == EVERY_COLOUR_DIGEST


def test_stats_over_every_colour_are_pinned_bit_for_bit_on_the_numpy_path(numpy_path):
    test_stats_over_every_colour_are_pinned_bit_for_bit()


@needs_cc
def test_stats_over_every_colour_are_pinned_bit_for_bit_on_the_plain_body(plain_body):
    test_stats_over_every_colour_are_pinned_bit_for_bit()


def half_turn_frames():
    """Three seeded random frames of 1100x1000 pixels.

    Between neighbours every pixel but those of a 30-row bottom strip turns
    half the hue circle, so each delta's sum of hue changes passes 2**27,
    where a float64 holds no multiple of 2**-26 that is not one of 2**-25.
    The strip holds reds (r, 1, 0), whose hues lie below 0.25 and whose
    deltas carry that last bit, so a float64 sum would round by its order,
    and these seeds' sums would round away from the exact sum in both
    deltas. Their stats pin that every mean is the exact one, rounded once.
    """
    rng = np.random.default_rng(3)
    first = rng.integers(0, 256, (1000, 1100, 3), dtype=np.uint8)
    turned, back = 255 - first, first.copy()
    for pixels in (turned, back):
        pixels[-30:] = (0, 1, 0)
        pixels[-30:, :, 0] = rng.integers(171, 256, (30, 1100))
    return [Frame(index=i, pixels=pixels.tobytes())
            for i, pixels in enumerate((first, turned, back))]


# sha256 of every avg_intensity and hsv_delta of half_turn_frames, packed as
# little-endian doubles, as exact_frame_stats computes them.
LARGE_FRAME_DIGEST = "15c10fab01151854ba8421fed8651506179b18d36016b4b59c44d765102452ba"


def test_the_large_frame_pin_holds_the_exact_means():
    assert stats_digest(exact_frame_stats(half_turn_frames())) == LARGE_FRAME_DIGEST


def test_stats_over_large_frames_are_pinned_bit_for_bit():
    # The every-colour pin's frames hold 2**16 pixels, and a float64 sum of
    # their float32 hue and saturation changes would be exact in any order.
    # These hold more, so this pin sees a sum that a float64 cannot hold.
    stats = stream_stats(half_turn_frames())
    assert stats_digest((s.avg_intensity, s.hsv_delta) for s in stats) == LARGE_FRAME_DIGEST


def test_stats_over_large_frames_are_pinned_bit_for_bit_on_the_numpy_path(numpy_path):
    test_stats_over_large_frames_are_pinned_bit_for_bit()


@needs_cc
def test_stats_over_large_frames_are_pinned_bit_for_bit_on_the_plain_body(plain_body):
    test_stats_over_large_frames_are_pinned_bit_for_bit()


@pytest.mark.parametrize("path", ["numpy", "compiled"])
def test_numpy_buffer_size_does_not_move_the_stats(request, path):
    # numpy casts through a buffer of np.getbufsize() items, so a float64
    # sum of float32 changes would be taken in an order that size sets
    if path == "numpy":
        request.getfixturevalue("numpy_path")
    expected = exact_frame_stats(half_turn_frames())
    size = np.getbufsize()
    try:
        for buffer in (4096, 8192, 32768):
            np.setbufsize(buffer)
            stats = stream_stats(half_turn_frames())
            assert [(s.avg_intensity, s.hsv_delta) for s in stats] == expected, buffer
    finally:
        np.setbufsize(size)
