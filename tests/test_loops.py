import errno
import hashlib
import io
import json
import math
import os
import tracemalloc
import wave

import numpy as np
import pytest

from vidscore import cli, loops
from vidscore.errors import ConfigError, EmptyInputError, MalformedSourceError, StemMismatchError
from vidscore.loops import (
    _BLOCK as BLOCK,
    _WINDOW as WINDOW,
    Copy,
    Mix,
    Stem,
    build_layer_schedule,
    load_stem_manifest,
    mix_stems,
    read_wav,
    write_wav,
)
from vidscore.scenes import Scene, scenes_to_json

from conftest import mixed_track, naive_mix_stems, wave_bytes, write_wave


def make_scene(sid, start_s, end_s, fps=30):
    return Scene(
        id=sid,
        start_frame=round(start_s * fps),
        end_frame=round(end_s * fps),
        start_s=start_s,
        end_s=end_s,
        opens_with="cut" if sid else "start-of-video",
        closes_with="cut",
    )


def scene_run(durations):
    scenes = []
    t = 0.0
    for i, d in enumerate(durations):
        scenes.append(make_scene(i, t, t + d))
        t += d
    return scenes


def make_stem(label, rank, samples=None, rate=8000, channels=1):
    if samples is None:
        samples = np.full((rate, channels), 1000 * rank, dtype=np.int16)
    return Stem(label=label, samples=samples, sample_rate=rate, activation_rank=rank)


def stems_n(count, **kwargs):
    return [make_stem(f"stem{i}", i + 1, **kwargs) for i in range(count)]


class TestBuildLayerSchedule:
    def counts(self, n_scenes, n_stems):
        schedule = build_layer_schedule(scene_run([2.0] * n_scenes), stems_n(n_stems))
        return [len(active) for active in schedule]

    def test_five_scenes_three_stems(self):
        assert self.counts(5, 3) == [1, 2, 3, 2, 1]

    def test_even_count_middle_pair_at_peak(self):
        assert self.counts(4, 3) == [1, 2, 2, 1]

    def test_single_scene(self):
        assert self.counts(1, 3) == [1]

    def test_counts_clamped_to_stems(self):
        assert self.counts(9, 2) == [1, 2, 2, 2, 2, 2, 2, 2, 1]

    def test_activation_order_and_reverse_deactivation(self):
        stems = stems_n(4)
        schedule = build_layer_schedule(scene_run([2.0] * 7), stems)
        ranked = [s.label for s in stems]
        for active in schedule:
            assert active == ranked[: len(active)]  # always a rank prefix

    def test_exhaustive_unimodality(self):
        for n_scenes in range(1, 51):
            for n_stems in range(1, 9):
                counts = self.counts(n_scenes, n_stems)
                assert len(counts) == n_scenes
                assert counts[0] == 1
                assert counts[-1] == 1 if n_scenes > 1 else counts[-1] >= 1
                peak = max(counts)
                peak_positions = [i for i, c in enumerate(counts) if c == peak]
                mid = (n_scenes - 1) / 2
                # the peak plateau must straddle the middle scene (or pair)
                assert peak_positions[0] <= math.ceil(mid)
                assert peak_positions[-1] >= math.floor(mid)
                rising = counts[: peak_positions[0] + 1]
                falling = counts[peak_positions[-1] :]
                assert rising == sorted(rising)
                assert falling == sorted(falling, reverse=True)
                assert max(counts) <= n_stems

    def test_no_scenes(self):
        with pytest.raises(EmptyInputError):
            build_layer_schedule([], stems_n(2))

    def test_no_stems(self):
        with pytest.raises(EmptyInputError):
            build_layer_schedule(scene_run([2.0]), [])


PEAK_TARGET = int(round(32767 * 10 ** (-1.0 / 20.0)))


class TestMixStems:
    def test_exact_tiling_of_looped_stem(self):
        rate = 8000
        ramp = np.arange(1, 1001, dtype=np.int16).reshape(-1, 1)
        stem = make_stem("loop", 1, samples=ramp, rate=rate)
        scenes = [make_scene(0, 0.0, 2000 / rate)]  # exactly 2x the stem
        out = mixed_track(mix_stems([["loop"]], scenes, [stem]))
        assert len(out) == 2000
        assert np.array_equal(out[:1000], out[1000:])
        assert out.max() == PEAK_TARGET

    def test_normalization_prevents_clipping(self):
        rate = 8000
        loud = np.full((rate, 1), 32767, dtype=np.int16)
        stems = [
            make_stem("a", 1, samples=loud, rate=rate),
            make_stem("b", 2, samples=loud, rate=rate),
        ]
        scenes = [make_scene(0, 0.0, 1.0)]
        out = mixed_track(mix_stems([["a", "b"]], scenes, stems))
        assert int(np.abs(out.astype(np.int32)).max()) == PEAK_TARGET

    def test_scene_shorter_than_stem_truncates(self):
        rate = 8000
        ramp = np.arange(1, rate + 1, dtype=np.int16).reshape(-1, 1)
        stem = make_stem("loop", 1, samples=ramp, rate=rate)
        scenes = [make_scene(0, 0.0, 0.25)]
        out = mixed_track(mix_stems([["loop"]], scenes, [stem]))
        assert len(out) == rate // 4

    def test_output_length_covers_video(self):
        rate = 8000
        stems = stems_n(3, rate=rate)
        scenes = scene_run([1.5, 2.25, 0.7])
        schedule = build_layer_schedule(scenes, stems)
        out = mixed_track(mix_stems(schedule, scenes, stems))
        assert len(out) == round((1.5 + 2.25 + 0.7) * rate)
        assert out.shape[1] == 1

    def test_stem_restarts_at_scene_boundaries(self):
        rate = 8000
        ramp = np.arange(1, rate + 1, dtype=np.int16).reshape(-1, 1)
        stem = make_stem("loop", 1, samples=ramp, rate=rate)
        scenes = scene_run([0.5, 0.5])
        out = mixed_track(mix_stems([["loop"], ["loop"]], scenes, [stem]))
        # both scenes open with the stem's first samples: identical halves
        assert np.array_equal(out[: rate // 2], out[rate // 2 :])

    def test_stereo_preserved(self):
        rate = 8000
        stereo = np.tile(np.array([[100, -100]], dtype=np.int16), (rate, 1))
        stem = make_stem("wide", 1, samples=stereo, rate=rate, channels=2)
        scenes = [make_scene(0, 0.0, 1.0)]
        out = mixed_track(mix_stems([["wide"]], scenes, [stem]))
        assert out.shape == (rate, 2)

    def test_incompatible_stems(self):
        stems = [make_stem("a", 1, rate=8000), make_stem("b", 2, rate=44100)]
        with pytest.raises(StemMismatchError):
            mix_stems([["a", "b"]], [make_scene(0, 0.0, 1.0)], stems)

    def test_overlapping_scenes_are_refused(self):
        # the peak is found per scene, which holds only while scenes tile
        scenes = [make_scene(0, 0.0, 1.0), make_scene(1, 0.5, 1.5)]
        with pytest.raises(MalformedSourceError, match="scene 1 starts before"):
            mix_stems([["stem0"], ["stem0"]], scenes, stems_n(1))

    def test_silent_input_stays_silent(self):
        rate = 8000
        quiet = np.zeros((rate, 1), dtype=np.int16)
        stem = make_stem("hush", 1, samples=quiet, rate=rate)
        out = mixed_track(mix_stems([["hush"]], [make_scene(0, 0.0, 1.0)], [stem]))
        assert int(np.abs(out.astype(np.int32)).max()) == 0


def random_mix_case(seed, channels):
    """Stems of random length and content (some silent) over scenes cut at
    random frames, duplicates giving zero-length scenes, with a random
    subset of stems active in each scene."""
    gen = np.random.default_rng(seed)
    rate = 8000
    stems = []
    for rank in range(1, int(gen.integers(1, 5)) + 1):
        length = int(gen.integers(1, 3 * rate))
        if gen.random() < 0.2:
            samples = np.zeros((length, channels), dtype=np.int16)
        else:
            loud = int(gen.integers(1, 32768))
            samples = gen.integers(-loud, loud, (length, channels), dtype=np.int16)
        stems.append(make_stem(f"s{rank}", rank, samples=samples, rate=rate))
    frames = int(gen.integers(1, 4 * BLOCK))
    cuts = gen.integers(0, frames, int(gen.integers(0, 8)))
    cuts = np.sort(np.concatenate([cuts, cuts[:int(gen.integers(0, 3))]]))
    bounds = [0, *cuts.tolist(), frames]
    scenes = [make_scene(i, a / rate, b / rate) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    schedule = [[stem.label for stem in stems if gen.random() < 0.6] for _ in scenes]
    return schedule, scenes, stems


def spike_case(sign, channels):
    """Quiet stems over 3.5 blocks and a one-sample spike stem that plays
    only in the last scene, which starts after the second block."""
    rate = 8000
    gen = np.random.default_rng(channels)
    quiet = gen.integers(-900, 900, (rate, channels), dtype=np.int16)
    spike = np.zeros((3 * rate, channels), dtype=np.int16)
    spike[17] = sign * 20000
    stems = [make_stem("quiet", 1, samples=quiet, rate=rate),
             make_stem("spike", 2, samples=spike, rate=rate)]
    frames = 7 * BLOCK // 2
    scenes = [make_scene(0, 0.0, BLOCK / rate),
              make_scene(1, BLOCK / rate, (2 * BLOCK + 100) / rate),
              make_scene(2, (2 * BLOCK + 100) / rate, frames / rate)]
    return [["quiet"], ["quiet"], ["quiet", "spike"]], scenes, stems


def spiky_stem(label, rank, length, spikes):
    """A quiet mono stem of ``length`` frames with a value at each frame of
    ``spikes``."""
    samples = np.full((length, 1), 7, dtype=np.int16)
    for frame, value in spikes.items():
        samples[frame] = value
    return make_stem(label, rank, samples=samples, rate=8000)


class TestMixMatchesOracle:
    def assert_matches(self, schedule, scenes, stems):
        want = naive_mix_stems(schedule, scenes, stems)
        mix = mix_stems(schedule, scenes, stems)
        got = mixed_track(mix)
        assert mix.shape == want.shape and mix.size == want.size
        assert got.dtype == np.int16 and got.shape == want.shape
        assert np.array_equal(got, want)
        # the gain comes from the exact peak, so no sample needs clipping
        assert int(np.abs(got.astype(np.int32)).max(initial=0)) <= PEAK_TARGET
        return got

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cases(self, seed, channels):
        self.assert_matches(*random_mix_case(seed, channels))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_positive_peak_in_a_later_block(self, channels):
        out = self.assert_matches(*spike_case(1, channels))
        assert len(out) > 3 * BLOCK
        assert np.abs(out.astype(np.int32)).argmax() // channels >= 2 * BLOCK
        assert out.max() == PEAK_TARGET

    @pytest.mark.parametrize("channels", [1, 2])
    def test_negative_peak(self, channels):
        out = self.assert_matches(*spike_case(-1, channels))
        assert -int(out.min()) == PEAK_TARGET > int(out.max())

    def test_short_and_zero_length_scenes(self):
        rate = 8000
        ramp = np.arange(-rate, rate, 2, dtype=np.int16).reshape(-1, 1)
        stems = [make_stem("ramp", 1, samples=ramp, rate=rate)]
        scenes = scene_run([0.3, 0.0, 0.0, 0.05, 1.7, 0.0])  # the stem is 1 s
        self.assert_matches([["ramp"]] * len(scenes), scenes, stems)

    def test_coprime_stems_peak_past_the_longest_inside_their_lcm(self):
        # 7 and 11 frames: their spikes meet only at frame 38 of every 77
        stems = [spiky_stem("a", 1, 7, {3: 10000}), spiky_stem("b", 2, 11, {5: 10000})]
        out = self.assert_matches([["a", "b"]], [make_scene(0, 0.0, 200 / 8000)], stems)
        assert out[38, 0] == out[115, 0] == out[192, 0] == PEAK_TARGET
        assert np.count_nonzero(out == PEAK_TARGET) == 3

    def test_stem_set_peaks_only_in_a_longer_scenes_tail(self):
        # lcm(13, 17) = 221 frames; the spikes meet at frame 152, which the
        # 100-frame first scene never reaches and the 300-frame last one does
        stems = [spiky_stem("a", 1, 13, {9: 12000}), spiky_stem("b", 2, 17, {16: 12000}),
                 spiky_stem("c", 3, 5, {0: 3000})]
        bounds = [0, 100, 160, 460]
        scenes = [make_scene(i, a / 8000, b / 8000) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        out = self.assert_matches([["a", "b"], ["c"], ["a", "b"]], scenes, stems)
        assert out[160 + 152, 0] == PEAK_TARGET
        assert np.abs(out[:160].astype(np.int32)).max() < PEAK_TARGET

    def test_scene_shorter_than_its_lcm(self):
        # lcm(7, 11) = 77, but the scene is 50 frames: the spikes meeting at
        # frame 69 (-30000) never play, so the peak is the pair at frame 38
        stems = [spiky_stem("a", 1, 7, {3: 10000, 6: -15000}),
                 spiky_stem("b", 2, 11, {5: 10000, 3: -15000})]
        out = self.assert_matches([["a", "b"]], [make_scene(0, 0.0, 50 / 8000)], stems)
        assert out[38, 0] == PEAK_TARGET

    def test_label_listed_twice_plays_twice(self):
        stems = [spiky_stem("a", 1, 10, {4: 9000}), spiky_stem("b", 2, 3, {1: 500})]
        scenes = scene_run([40 / 8000, 40 / 8000])
        out = self.assert_matches([["a", "b"], ["a", "b", "a"]], scenes, stems)
        assert np.abs(out.astype(np.int32)).argmax() >= 40  # in the doubled scene

    def test_an_empty_active_list_is_silence_and_still_bounds_the_next_scene(self):
        stems = [spiky_stem("a", 1, 30, {4: 9000})]
        scenes = [make_scene(0, 0.0, 100 / 8000), make_scene(1, 100 / 8000, 250 / 8000),
                  make_scene(2, 250 / 8000, 400 / 8000)]
        out = self.assert_matches([["a"], [], ["a"]], scenes, stems)
        assert not out[100:250].any() and out[250:].all()
        scenes[2] = make_scene(2, 200 / 8000, 400 / 8000)
        with pytest.raises(MalformedSourceError, match="scene 2 starts before"):
            mix_stems([["a"], [], ["a"]], scenes, stems)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_all_silent_stems(self, channels):
        stems = [make_stem(f"s{i}", i, rate=8000, channels=channels,
                           samples=np.zeros((700 * i, channels), dtype=np.int16))
                 for i in (1, 2, 3)]
        scenes = scene_run([10.0, 9.0, 4.0])
        out = self.assert_matches(build_layer_schedule(scenes, stems), scenes, stems)
        assert len(out) > BLOCK and not out.any()


def test_mix_and_write_memory_stays_near_one_int32_track(tmp_path):
    """60 s of 48 kHz stereo from 8 stems: mixing and writing must trace at
    most 8 bytes per output sample plus 8 MB (the int32 mix is 4)."""
    rate = 48000
    gen = np.random.default_rng(3)
    stems = [make_stem(f"s{i}", i, rate=rate, channels=2,
                       samples=gen.integers(-4000, 4000, (rate * (1 + i % 3), 2),
                                            dtype=np.int16))
             for i in range(1, 9)]
    scenes = scene_run([7.5] * 8)
    schedule = build_layer_schedule(scenes, stems)
    path = str(tmp_path / "mix.wav")
    tracemalloc.start()
    try:
        write_wav(path, mix_stems(schedule, scenes, stems), rate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = 60 * rate * 2
    assert peak <= 8 * samples + 8 * 2**20
    assert read_wav(path)[0].shape == (60 * rate, 2)


def ramp_stems(rate=48000):
    """The eight stereo stems of the memory tests, 1 to 3 s long."""
    gen = np.random.default_rng(3)
    return [make_stem(f"s{i}", i, rate=rate, channels=2,
                      samples=gen.integers(-4000, 4000, (rate * (1 + i % 3), 2),
                                           dtype=np.int16))
            for i in range(1, 9)]


def test_mix_and_write_memory_does_not_grow_with_the_track(tmp_path):
    """240 s and 30 s of 48 kHz stereo from the same 8 stems trace the same
    peak within 1 MB: the block buffers."""
    rate = 48000
    stems = ramp_stems(rate)

    def traced_peak(seconds):
        scenes = scene_run([seconds / 8] * 8)
        schedule = build_layer_schedule(scenes, stems)
        path = str(tmp_path / f"mix{seconds}.wav")
        tracemalloc.start()
        try:
            write_wav(path, mix_stems(schedule, scenes, stems), rate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read_wav(path)[0].shape == (seconds * rate, 2)
        return peak

    long_peak, short_peak = traced_peak(240), traced_peak(30)
    assert abs(long_peak - short_peak) < 2**20, (long_peak, short_peak)


def test_mix_holds_no_widened_copy_of_the_stems(tmp_path):
    """Three 20 s stereo stems at 48 kHz over six 25 s scenes: an int32 copy
    of each would trace 23 MB, while the stems are summed straight into the
    block buffers, which trace under 2 MB."""
    rate = 48000
    gen = np.random.default_rng(5)
    stems = [make_stem(f"s{i}", i, rate=rate, channels=2,
                       samples=gen.integers(-4000, 4000, (20 * rate, 2), dtype=np.int16))
             for i in (1, 2, 3)]
    scenes = scene_run([25.0] * 6)
    schedule = build_layer_schedule(scenes, stems)
    path = str(tmp_path / "mix.wav")
    tracemalloc.start()
    try:
        write_wav(path, mix_stems(schedule, scenes, stems), rate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert read_wav(path)[0].shape == (150 * rate, 2)


def block_edge_case(frames, channels):
    """A short stem, a stem longer than a block, and one that, from the
    second scene's start half a block in, spans three blocks."""
    rate = 8000
    gen = np.random.default_rng(frames * channels)
    lengths = {"short": 1000, "long": BLOCK + 5000, "span": 2 * BLOCK + 10}
    stems = [make_stem(label, rank, rate=rate,
                       samples=gen.integers(-9000, 9000, (length, channels), dtype=np.int16))
             for rank, (label, length) in enumerate(lengths.items(), 1)]
    cut = BLOCK // 2
    assert (cut + lengths["span"]) // BLOCK == 2  # on a track long enough
    scenes = [make_scene(0, 0.0, cut / rate), make_scene(1, cut / rate, frames / rate)]
    return [["short", "long"], ["short", "long", "span"]], scenes, stems


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("frames", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_block_edges_match_the_oracle(tmp_path, frames, channels):
    schedule, scenes, stems = block_edge_case(frames, channels)
    want = naive_mix_stems(schedule, scenes, stems)
    mix = mix_stems(schedule, scenes, stems)
    assert mix.shape == want.shape == (frames, channels)
    assert np.array_equal(mixed_track(mix), want)
    # the blocks make the file wave writes for the whole track
    write_wav(str(tmp_path / "blocks.wav"), mix, 8000)
    assert (tmp_path / "blocks.wav").read_bytes() == wave_bytes(want, 8000)


@pytest.mark.parametrize("channels, sha256", [
    (1, "4f8734c5e13ac599e168cf247a51c1dd0758537ce00bf16d7fed1a3d14d07041"),
    (2, "ab502e0759361ed10546c1d7f4cdd606f89f51d2c9a4d5e093c9cc7d6ceb0684"),
])
def test_zero_frame_track_writes_an_empty_wav(tmp_path, channels, sha256):
    stem = make_stem("a", 1, channels=channels,
                     samples=np.arange(1, 101, dtype=np.int16).reshape(-1, 1).repeat(channels, 1))
    mix = mix_stems([["a"]], [make_scene(0, 0.0, 0.0)], [stem])
    assert mix.shape == (0, channels) and mix.size == 0
    assert mixed_track(mix).shape == naive_mix_stems([["a"]], [make_scene(0, 0.0, 0.0)],
                                                     [stem]).shape
    path = tmp_path / "empty.wav"
    write_wav(str(path), mix, 8000)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256  # a 44-byte header


def test_failure_between_blocks_keeps_the_previous_wav(tmp_path, monkeypatch):
    schedule, scenes, stems = block_edge_case(3 * BLOCK + 7, 2)
    path = tmp_path / "soundtrack.wav"
    write_wav(str(path), mix_stems(schedule, scenes, stems), 8000)
    before = path.read_bytes()
    whole_blocks = Mix.blocks

    def failing_blocks(self):
        blocks = whole_blocks(self)
        yield next(blocks)
        raise StemMismatchError("failed after the first block")

    monkeypatch.setattr(Mix, "blocks", failing_blocks)
    with pytest.raises(StemMismatchError, match="after the first block"):
        write_wav(str(path), mix_stems([["short"], ["span"]], scenes, stems), 8000)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["soundtrack.wav"]


def noise_stems(lengths, channels, seed=0):
    """Stems of random content, one per (label, length) of ``lengths``, ranked
    in order."""
    gen = np.random.default_rng(seed)
    return [make_stem(label, rank, rate=8000,
                      samples=gen.integers(-9000, 9000, (length, channels), dtype=np.int16))
            for rank, (label, length) in enumerate(lengths.items(), 1)]


def frame_scenes(bounds):
    """Scenes between consecutive frames of ``bounds`` at 8 kHz."""
    return [make_scene(i, a / 8000, b / 8000) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def assert_writes_the_oracle(tmp_path, schedule, scenes, stems):
    """The mix gathered from its pieces equals the oracle track, and the WAV
    written from them the file ``wave`` writes for it; returns the pieces
    ``blocks`` yields, blocks as their lengths."""
    want = naive_mix_stems(schedule, scenes, stems)
    mix = mix_stems(schedule, scenes, stems)
    pieces = [piece if isinstance(piece, Copy) else len(piece) for piece in mix.blocks()]
    assert not isinstance(pieces[0], Copy)  # a copy needs frames written before it
    assert np.array_equal(mixed_track(mix), want)
    write_wav(str(tmp_path / "pieces.wav"), mix, 8000)
    assert (tmp_path / "pieces.wav").read_bytes() == wave_bytes(want, 8000)
    return pieces


@pytest.mark.parametrize("channels", [1, 2])
def test_chunks_smaller_than_the_file_buffer_are_read_back_whole(tmp_path, channels):
    """800- and 1000-frame stems repeat every 800, 1000 or 4000 frames, so the
    first chunks read back are smaller than the file object's write buffer
    and still sit in it unless it is flushed before every read."""
    stems = noise_stems({"a": 800, "b": 1000}, channels, seed=channels)
    scenes = frame_scenes([0, 24000, 64000, 84000, 90000])
    pieces = assert_writes_the_oracle(tmp_path, [["a"], ["a", "b"], ["b"], ["a", "b"]],
                                      scenes, stems)
    assert Copy(0, 800, 24000) in pieces and Copy(24000, 84000, 88000) in pieces


class TestCopyPlan:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_prefix_copy_new_extension_and_periodic_tail(self, tmp_path, channels):
        # lcm(300, 500) = 1500: the first scene holds 1000 frames of the period,
        # the second copies them, sums the other 500 and repeats all 1500
        stems = noise_stems({"a": 300, "b": 500}, channels)
        pieces = assert_writes_the_oracle(tmp_path, [["a", "b"], ["a", "b"]],
                                          frame_scenes([0, 1000, 6000]), stems)
        assert pieces == [1000, Copy(0, 1000, 2000), 500, Copy(1000, 2500, 6000)]

    @pytest.mark.parametrize("channels", [1, 2])
    def test_stem_set_comes_back_after_another(self, tmp_path, channels):
        stems = noise_stems({"a": 300, "b": 500, "c": 70}, channels)
        pieces = assert_writes_the_oracle(tmp_path, [["a", "b"], ["c"], ["b", "a"]],
                                          frame_scenes([0, 2000, 2100, 3000]), stems)
        assert pieces == [1500, Copy(0, 1500, 2000), 70, Copy(2000, 2070, 2100),
                          Copy(0, 2100, 3000)]

    @pytest.mark.parametrize("channels", [1, 2])
    def test_first_scene_starts_after_frame_0(self, tmp_path, channels):
        stems = noise_stems({"a": 300}, channels)
        scenes = frame_scenes([0, 450, 2000, 2500])[1:]
        pieces = assert_writes_the_oracle(tmp_path, [["a"], ["a"]], scenes, stems)
        assert pieces == [450, 300, Copy(450, 750, 2000), Copy(450, 2000, 2300),
                          Copy(2000, 2300, 2500)]

    @pytest.mark.parametrize("channels", [1, 2])
    def test_repeat_longer_than_the_block_buffer(self, tmp_path, channels):
        # a 6300-frame period repeated over more than three blocks is tiled
        # into the block buffer as ten whole periods, written over and over
        stems = noise_stems({"a": 700, "b": 900}, channels)
        frames = 3 * BLOCK + 123
        pieces = assert_writes_the_oracle(tmp_path, [["a", "b"]], frame_scenes([0, frames]),
                                          stems)
        assert pieces == [6300, Copy(0, 6300, frames)]


def test_failure_during_a_copy_keeps_the_previous_wav(tmp_path, monkeypatch):
    stems = noise_stems({"a": 700, "b": 900}, 2)
    scenes = frame_scenes([0, 20000, 3 * BLOCK])
    path = tmp_path / "soundtrack.wav"
    write_wav(str(path), mix_stems([["a"], ["b"]], scenes, stems), 8000)
    before = path.read_bytes()
    descriptors = len(os.listdir("/proc/self/fd"))
    maps = []
    whole_mmap = loops.mmap.mmap

    def failing_mmap(*args, **kwargs):
        maps.append(args)
        if len(maps) == 2:
            raise OSError(errno.EIO, "failed on the second mapping")
        return whole_mmap(*args, **kwargs)

    monkeypatch.setattr(loops.mmap, "mmap", failing_mmap)
    with pytest.raises(ConfigError, match="second mapping"):
        write_wav(str(path), mix_stems([["a", "b"], ["a", "b"]], scenes, stems), 8000)
    assert len(maps) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["soundtrack.wav"]
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_frames_to_repeat_missing_from_the_file_is_a_config_error(tmp_path, monkeypatch):
    whole_mmap = loops.mmap.mmap

    def mmap_after_truncating(fileno, length, **kwargs):
        os.ftruncate(fileno, 44)  # the frames to repeat are gone
        return whole_mmap(fileno, length, **kwargs)

    monkeypatch.setattr(loops.mmap, "mmap", mmap_after_truncating)
    stems = noise_stems({"a": 700}, 1)
    with pytest.raises(ConfigError, match="cannot map the frames to repeat"):
        write_wav(str(tmp_path / "mix.wav"), mix_stems([["a"]], frame_scenes([0, 3000]), stems),
                  8000)
    assert not any(tmp_path.iterdir())


class TestRepeatMappings:
    """Each copy piece is written from one read-only mapping of the frames
    it repeats, or from one per window of at most ``WINDOW`` frames, many
    repeats to a ``writev`` call."""

    def write(self, tmp_path, monkeypatch, schedule, scenes, stems):
        """Write the mix, check the file against the one ``wave`` writes for
        the oracle track, and return its copy pieces, the length of each
        mapping made and the number of buffers each write was given."""
        want = naive_mix_stems(schedule, scenes, stems)
        mix = mix_stems(schedule, scenes, stems)
        lengths, writes = [], []
        whole_mmap, whole_writev = loops.mmap.mmap, loops.os.writev

        def recording_mmap(fileno, length, **kwargs):
            lengths.append(length)
            return whole_mmap(fileno, length, **kwargs)

        def recording_writev(fd, buffers):
            writes.append(len(buffers))
            return whole_writev(fd, buffers)

        monkeypatch.setattr(loops.mmap, "mmap", recording_mmap)
        monkeypatch.setattr(loops.os, "writev", recording_writev)
        write_wav(str(tmp_path / "mix.wav"), mix, 8000)
        assert (tmp_path / "mix.wav").read_bytes() == wave_bytes(want, 8000)
        return [piece for piece in mix.blocks() if isinstance(piece, Copy)], lengths, writes

    def test_a_short_write_goes_on_from_the_byte_it_stopped_at(self, tmp_path, monkeypatch):
        whole_writev = loops.os.writev

        def short_writev(fd, buffers):
            data = b""  # the first 1001 bytes of the buffers: never a whole frame
            for buffer in buffers:
                with memoryview(buffer) as view:
                    data += view[:1001 - len(data)].tobytes()
            return whole_writev(fd, [data])

        monkeypatch.setattr(loops.os, "writev", short_writev)
        stems = noise_stems({"a": 700, "b": 900}, 2)
        assert_writes_the_oracle(tmp_path, [["a", "b"], ["a"], ["a", "b"]],
                                 frame_scenes([0, 20000, 30000, 3 * BLOCK]), stems)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_one_frame_period_is_written_a_block_at_a_time(self, tmp_path, monkeypatch, channels):
        frames = 3 * BLOCK + 7
        stems = noise_stems({"a": 1}, channels)
        copies, lengths, writes = self.write(tmp_path, monkeypatch, [["a"]],
                                             frame_scenes([0, frames]), stems)
        assert copies == [Copy(0, 1, frames)]
        assert len(lengths) == 1
        # the header, the one summed frame, then one buffer per block of
        # repeats, the whole blocks in one call
        assert writes == [1, 1, 3, 1]

    @pytest.mark.parametrize("channels", [1, 2])
    def test_period_between_a_block_and_a_window_is_mapped_once_per_piece(
            self, tmp_path, monkeypatch, channels):
        # the second scene's first period copies the first scene's, which lies
        # more than a window back: only the frames it uses are mapped
        period = BLOCK + 5000
        stems = noise_stems({"a": period}, channels)
        cut = WINDOW + 3000
        copies, lengths, _ = self.write(tmp_path, monkeypatch, [["a"], ["a"]],
                                        frame_scenes([0, cut, cut + 5 * period // 2]), stems)
        assert copies == [Copy(0, period, cut), Copy(0, cut, cut + period),
                          Copy(cut, cut + period, cut + 5 * period // 2)]
        assert len(lengths) == len(copies)
        # a mapping starts on the page holding the first frame it repeats
        assert max(lengths) <= period * 2 * channels + loops.mmap.ALLOCATIONGRANULARITY

    @pytest.mark.parametrize("channels", [1, 2])
    def test_period_longer_than_a_window_is_mapped_a_window_at_a_time(
            self, tmp_path, monkeypatch, channels):
        period = WINDOW + 1000
        stems = noise_stems({"a": period}, channels)
        copies, lengths, _ = self.write(tmp_path, monkeypatch, [["a"]],
                                        frame_scenes([0, 5 * period // 2]), stems)
        assert copies == [Copy(0, period, 5 * period // 2)]
        # two windows for the first repeat, the first again for the half
        assert len(lengths) == 3
        assert max(lengths) <= WINDOW * 2 * channels


class TestWavHeader:
    """``write_wav`` packs the header that ``wave`` writes, and refuses a
    value that one of its fields cannot hold."""

    @pytest.mark.parametrize("channels", range(1, 9))
    def test_header_is_the_one_wave_writes(self, tmp_path, channels):
        gen = np.random.default_rng(channels)
        path = tmp_path / "out.wav"
        for frames in (0, 1, 7, BLOCK + 1):
            # a three-frame stem repeated over the track: past three frames
            # the mix is written from copy pieces
            stem = gen.integers(-9000, 9000, (3, channels), dtype=np.int16)
            mix = Mix(frames, channels, [(0, frames, [stem])])
            track = mixed_track(mix)
            for rate in (8000, 22050, 44100, 48000, 192000):
                want = wave_bytes(track, rate)
                write_wav(str(path), mix, rate)
                got = path.read_bytes()
                assert got[:44] == want[:44], (frames, rate)
                assert got == want

    def test_largest_data_size_a_wav_holds(self):
        most = (0xFFFFFFFF - 36) // 2  # mono frames
        out = io.BytesIO()
        wav = wave.open(out, "wb")
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(1)
        wav.setnframes(most)
        wav.writeframesraw(b"")  # writes the header for `most` frames
        assert loops._wav_header("x.wav", most, 1, 1) == out.getvalue()
        wav.close()

    @pytest.mark.parametrize("channels, rate, match", [
        (0, 8000, "0 channels"),
        (2**15, 8000, "32768 channels"),  # the block align field is 16 bits
        (1, 0, "0 Hz"),
        (2, -8000, "-8000 Hz"),
        (1, 2**31, "2147483648 Hz"),  # a byte rate of 2**32
        (2, 2**30, "1073741824 Hz"),
    ])
    def test_field_a_wav_cannot_hold_is_refused(self, tmp_path, channels, rate, match):
        with pytest.raises(StemMismatchError, match=match):
            write_wav(str(tmp_path / "out.wav"), Mix(0, channels, []), rate)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("channels", [1, 2])
    def test_track_past_4_gib_is_refused(self, tmp_path, channels):
        # a one-frame stem over the track: the mix sums one frame and
        # copies the rest, so it is cheap to build and nothing is written
        frames = (0xFFFFFFFF - 36) // (2 * channels) + 1
        mix = Mix(frames, channels, [(0, frames, [np.ones((1, channels), dtype=np.int16)])])
        with pytest.raises(StemMismatchError, match="4 GiB"):
            write_wav(str(tmp_path / "out.wav"), mix, 8000)
        assert not any(tmp_path.iterdir())


class TestWavAndManifest:
    def test_wav_roundtrip(self, tmp_path):
        rate = 8000
        samples = (np.sin(np.linspace(0, 40, rate)) * 12000).astype(np.int16)
        path = str(tmp_path / "tone.wav")
        write_wave(path, samples, rate)
        loaded, loaded_rate = read_wav(path)
        assert loaded_rate == rate
        assert np.array_equal(loaded[:, 0], samples)

    def test_manifest_loads_ordered_stems(self, tmp_path):
        rate = 8000
        for name in ("kick", "pad"):
            write_wave(str(tmp_path / f"{name}.wav"), np.ones(rate, dtype=np.int16), rate)
        manifest = tmp_path / "stems.json"
        manifest.write_text(json.dumps([
            {"label": "pad", "path": "pad.wav", "activation_rank": 2},
            {"label": "kick", "path": "kick.wav", "activation_rank": 1},
        ]))
        stems = load_stem_manifest(str(manifest))
        assert {s.label for s in stems} == {"kick", "pad"}
        assert all(s.sample_rate == rate for s in stems)

    def test_manifest_missing_file(self, tmp_path):
        manifest = tmp_path / "stems.json"
        manifest.write_text(json.dumps([
            {"label": "kick", "path": "missing.wav", "activation_rank": 1},
        ]))
        with pytest.raises(StemMismatchError):
            load_stem_manifest(str(manifest))

    def test_manifest_bad_json(self, tmp_path):
        manifest = tmp_path / "stems.json"
        manifest.write_text("not json")
        with pytest.raises(ConfigError):
            load_stem_manifest(str(manifest))

    def write_manifest(self, tmp_path, entries):
        write_wave(str(tmp_path / "tone.wav"), np.ones(800, dtype=np.int16), 8000)
        manifest = tmp_path / "stems.json"
        manifest.write_text(json.dumps(entries))
        return str(manifest)

    def test_manifest_duplicate_labels(self, tmp_path):
        # a repeated label would mix one stem twice and never play the other
        manifest = self.write_manifest(tmp_path, [
            {"label": "x", "path": "tone.wav", "activation_rank": 1},
            {"label": "x", "path": "tone.wav", "activation_rank": 2},
        ])
        with pytest.raises(ConfigError, match="repeats a label"):
            load_stem_manifest(manifest)

    def test_manifest_non_integer_rank(self, tmp_path):
        manifest = self.write_manifest(tmp_path, [
            {"label": "x", "path": "tone.wav", "activation_rank": "first"},
        ])
        with pytest.raises(ConfigError):
            load_stem_manifest(manifest)

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_stem_ending_in_a_partial_frame(self, tmp_path, cut):
        write_wave(str(tmp_path / "wide.wav"), np.ones((800, 2), dtype=np.int16), 8000)
        data = (tmp_path / "wide.wav").read_bytes()
        (tmp_path / "wide.wav").write_bytes(data[:-cut])
        manifest = tmp_path / "stems.json"
        manifest.write_text(json.dumps([
            {"label": "x", "path": "wide.wav", "activation_rank": 1},
        ]))
        with pytest.raises(StemMismatchError, match="partial frame"):
            load_stem_manifest(str(manifest))

    def test_manifest_stem_not_a_wav(self, tmp_path):
        (tmp_path / "notes.wav").write_text("not a RIFF file")
        manifest = self.write_manifest(tmp_path, [
            {"label": "x", "path": "notes.wav", "activation_rank": 1},
        ])
        with pytest.raises(StemMismatchError):
            load_stem_manifest(manifest)


class TestRatesAWavCannotHold:
    """A stem rate, or a track length, that the output WAV's 32-bit header
    fields cannot hold exits 4 before anything is mixed or written."""

    def mix_loops(self, tmp_path, rate, channels, video_s, fps=(30, 1)):
        write_wave(str(tmp_path / "stem.wav"), np.ones((100, channels), dtype=np.int16), 48000)
        data = bytearray((tmp_path / "stem.wav").read_bytes())
        assert data[12:16] == b"fmt "
        data[24:28] = rate.to_bytes(4, "little")  # the fmt chunk's sample rate
        (tmp_path / "stem.wav").write_bytes(bytes(data))
        (tmp_path / "stems.json").write_text(
            json.dumps([{"label": "a", "path": "stem.wav", "activation_rank": 1}]))
        scenes = tmp_path / "scenes.json"
        scene = make_scene(0, 0.0, video_s, fps=fps[0] / fps[1])
        scenes.write_text(scenes_to_json([scene], fps, scene.end_frame))
        out = tmp_path / "out"
        code = cli.main(["mix-loops", "--scenes", str(scenes), "--stems",
                         str(tmp_path / "stems.json"), "--output-dir", str(out)])
        assert not (out / "soundtrack.wav").exists()
        assert not (out / "soundtrack.wav.tmp").exists()
        return code

    @pytest.mark.parametrize("rate, channels", [(0, 1), (0, 2), (2**31, 1), (2**30, 2)])
    def test_stem_rate_exits_4(self, tmp_path, capsys, rate, channels):
        assert self.mix_loops(tmp_path, rate, channels, 60) == 4
        assert "does not fit a WAV" in capsys.readouterr().err

    def test_track_past_4_gib_exits_4(self, tmp_path, capsys):
        # 13 h of 48 kHz stereo is about 9 GB of samples
        assert self.mix_loops(tmp_path, 48000, 2, 13 * 3600) == 4
        assert "4 GiB" in capsys.readouterr().err

    def test_track_whose_length_in_samples_overflows_exits_4(self, tmp_path, capsys):
        # one frame at 10**-308 fps ends at 1e308 s, which times the rate is inf
        assert self.mix_loops(tmp_path, 8000, 1, 1e308, fps=(1, 10 ** 308)) == 4
        assert "a track of inf frames passes the 4 GiB" in capsys.readouterr().err

    def test_largest_track_a_wav_holds_passes_the_check(self, monkeypatch):
        # at 1 Hz mono a frame is two bytes, and the RIFF size is 36 bytes
        # of header plus the data
        most = (0xFFFFFFFF - 36) // 2
        monkeypatch.setattr(loops, "Mix", lambda frames, channels, runs: frames)
        stems = [make_stem("a", 1, rate=1)]
        assert mix_stems([["a"]], [make_scene(0, 0.0, float(most))], stems) == most
        with pytest.raises(StemMismatchError, match="4 GiB"):
            mix_stems([["a"]], [make_scene(0, 0.0, float(most + 1))], stems)
