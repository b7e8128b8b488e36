import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from vidscore.errors import ConfigError, EmptyInputError, StemMismatchError
from vidscore.loops import (
    _BLOCK as BLOCK,
    Mix,
    Stem,
    build_layer_schedule,
    load_stem_manifest,
    mix_stems,
    read_wav,
    write_wav,
)
from vidscore.scenes import Scene

from conftest import mixed_track, naive_mix_stems


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


class TestMixMatchesOracle:
    def assert_matches(self, schedule, scenes, stems):
        want = naive_mix_stems(schedule, scenes, stems)
        mix = mix_stems(schedule, scenes, stems)
        got = mixed_track(mix)
        assert mix.shape == want.shape and mix.size == want.size
        assert got.dtype == np.int16 and got.shape == want.shape
        assert np.array_equal(got, want)
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
    peak within 1 MB: the stems' int32 copies and the block buffers."""
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
    assert mix.shape == want.shape == (frames, channels) and len(mix) == frames
    assert np.array_equal(mixed_track(mix), want)
    # the blocks make the same file as the whole track written in one piece
    write_wav(str(tmp_path / "blocks.wav"), mix, 8000)
    write_wav(str(tmp_path / "whole.wav"), want, 8000)
    assert (tmp_path / "blocks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()


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


class TestWavAndManifest:
    def test_wav_roundtrip(self, tmp_path):
        rate = 8000
        samples = (np.sin(np.linspace(0, 40, rate)) * 12000).astype(np.int16)
        path = str(tmp_path / "tone.wav")
        write_wav(path, samples, rate)
        loaded, loaded_rate = read_wav(path)
        assert loaded_rate == rate
        assert np.array_equal(loaded[:, 0], samples)

    def test_manifest_loads_ordered_stems(self, tmp_path):
        rate = 8000
        for name in ("kick", "pad"):
            write_wav(str(tmp_path / f"{name}.wav"),
                      np.ones(rate, dtype=np.int16), rate)
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
        write_wav(str(tmp_path / "tone.wav"), np.ones(800, dtype=np.int16), 8000)
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
        write_wav(str(tmp_path / "wide.wav"), np.ones((800, 2), dtype=np.int16), 8000)
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
