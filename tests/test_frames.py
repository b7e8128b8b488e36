import random

import pytest

from vidscore.errors import MalformedSourceError, SourceNotFoundError
from vidscore.frames import Frame, compute_intensity, open_frame_source, stream_stats

from conftest import rgb_to_hsv, solid_frame, write_ppm


def frame_of(rgb, width=8, height=6, index=0):
    return Frame(index=index, pixels=solid_frame(width, height, rgb))


def content_delta(prev, curr):
    """The HSV delta stream_stats reports for curr following prev."""
    return list(stream_stats([prev, curr]))[1].hsv_delta


def random_frame(rng, width=8, height=6, index=0):
    return Frame(
        index=index,
        pixels=bytes(rng.randrange(256) for _ in range(3 * width * height)),
    )


class TestIntensity:
    def test_all_black_is_zero(self):
        assert compute_intensity(frame_of((0, 0, 0))) == 0.0

    def test_all_white_is_full_scale(self):
        assert compute_intensity(frame_of((255, 255, 255))) == 255.0

    def test_half_black_half_white(self):
        pixels = solid_frame(8, 3, (0, 0, 0)) + solid_frame(8, 3, (255, 255, 255))
        assert compute_intensity(Frame(index=0, pixels=pixels)) == 127.5

    def test_permutation_invariant(self):
        rng = random.Random(11)
        frame = random_frame(rng)
        triples = [frame.pixels[i : i + 3] for i in range(0, len(frame.pixels), 3)]
        rng.shuffle(triples)
        shuffled = Frame(index=0, pixels=b"".join(triples))
        assert compute_intensity(frame) == pytest.approx(compute_intensity(shuffled))


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
        assert source.spec.frame_period_s == pytest.approx(1 / 30)
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

    def test_image_sequence(self, tmp_path):
        for i, level in enumerate([10, 20, 30]):
            write_ppm(str(tmp_path / f"{i:04d}.ppm"), 4, 3, solid_frame(4, 3, (level,) * 3))
        source = open_frame_source(str(tmp_path), fps=(25, 1))
        frames = list(source)
        assert source.total_frames == 3
        assert [compute_intensity(f) for f in frames] == [10.0, 20.0, 30.0]


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

    def test_stats_in_range(self):
        rng = random.Random(34)
        frames = [random_frame(rng, index=i) for i in range(8)]
        for entry in stream_stats(frames):
            assert 0.0 <= entry.avg_intensity <= 255.0
            if entry.hsv_delta is not None:
                assert 0.0 <= entry.hsv_delta <= 255.0
