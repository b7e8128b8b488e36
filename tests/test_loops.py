import json
import math

import numpy as np
import pytest

from vidscore.errors import ConfigError, EmptyInputError, StemMismatchError
from vidscore.loops import (
    Stem,
    build_layer_schedule,
    load_stem_manifest,
    mix_stems,
    read_wav,
    write_wav,
)
from vidscore.scenes import Scene


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
        out = mix_stems([["loop"]], scenes, [stem])
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
        out = mix_stems([["a", "b"]], scenes, stems)
        assert int(np.abs(out.astype(np.int32)).max()) == PEAK_TARGET

    def test_scene_shorter_than_stem_truncates(self):
        rate = 8000
        ramp = np.arange(1, rate + 1, dtype=np.int16).reshape(-1, 1)
        stem = make_stem("loop", 1, samples=ramp, rate=rate)
        scenes = [make_scene(0, 0.0, 0.25)]
        out = mix_stems([["loop"]], scenes, [stem])
        assert len(out) == rate // 4

    def test_output_length_covers_video(self):
        rate = 8000
        stems = stems_n(3, rate=rate)
        scenes = scene_run([1.5, 2.25, 0.7])
        schedule = build_layer_schedule(scenes, stems)
        out = mix_stems(schedule, scenes, stems)
        assert len(out) == round((1.5 + 2.25 + 0.7) * rate)
        assert out.shape[1] == 1

    def test_stem_restarts_at_scene_boundaries(self):
        rate = 8000
        ramp = np.arange(1, rate + 1, dtype=np.int16).reshape(-1, 1)
        stem = make_stem("loop", 1, samples=ramp, rate=rate)
        scenes = scene_run([0.5, 0.5])
        out = mix_stems([["loop"], ["loop"]], scenes, [stem])
        # both scenes open with the stem's first samples: identical halves
        assert np.array_equal(out[: rate // 2], out[rate // 2 :])

    def test_stereo_preserved(self):
        rate = 8000
        stereo = np.tile(np.array([[100, -100]], dtype=np.int16), (rate, 1))
        stem = make_stem("wide", 1, samples=stereo, rate=rate, channels=2)
        scenes = [make_scene(0, 0.0, 1.0)]
        out = mix_stems([["wide"]], scenes, [stem])
        assert out.shape == (rate, 2)

    def test_incompatible_stems(self):
        stems = [make_stem("a", 1, rate=8000), make_stem("b", 2, rate=44100)]
        with pytest.raises(StemMismatchError):
            mix_stems([["a", "b"]], [make_scene(0, 0.0, 1.0)], stems)

    def test_silent_input_stays_silent(self):
        rate = 8000
        quiet = np.zeros((rate, 1), dtype=np.int16)
        stem = make_stem("hush", 1, samples=quiet, rate=rate)
        out = mix_stems([["hush"]], [make_scene(0, 0.0, 1.0)], [stem])
        assert int(np.abs(out.astype(np.int32)).max()) == 0


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

    def test_manifest_stem_not_a_wav(self, tmp_path):
        (tmp_path / "notes.wav").write_text("not a RIFF file")
        manifest = self.write_manifest(tmp_path, [
            {"label": "x", "path": "notes.wav", "activation_rank": 1},
        ])
        with pytest.raises(StemMismatchError):
            load_stem_manifest(manifest)
