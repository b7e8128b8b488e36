import random

import pytest

from vidscore.errors import EmptyVideoError, MalformedSourceError
from vidscore.frames import FrameSpec
from vidscore.scenes import (
    DetectorConfig,
    detect_transitions,
    merge_scene_lists,
    scenes_from_json,
    scenes_to_json,
)

from conftest import make_stats

SPEC = FrameSpec(width=64, height=36, fps_num=30, fps_den=1)


def cuts_of(stats, config):
    return detect_transitions(stats, config)[0]


def fades_of(stats, config):
    return detect_transitions(stats, config)[1]


def stats_with_deltas(deltas):
    return make_stats([100.0] * (len(deltas) + 1), [None] + list(deltas))


class TestDetectCuts:
    def test_single_spike(self):
        stats = make_stats([100] * 4, [None, 0, 200, 0])
        assert cuts_of(stats, DetectorConfig()) == [2]

    def test_all_below_threshold(self):
        stats = make_stats([100] * 5, [None, 10, 20, 29.9, 5])
        assert cuts_of(stats, DetectorConfig()) == []

    def test_suppression_within_min_scene_frames(self):
        stats = make_stats([100] * 4, [None, 40, 40, 0])
        assert cuts_of(stats, DetectorConfig(min_scene_frames=15)) == [1]

    def test_threshold_is_inclusive(self):
        stats = make_stats([100] * 2, [None, 30.0])
        assert cuts_of(stats, DetectorConfig(cut_threshold=30.0)) == [1]

    def test_empty_stream(self):
        assert cuts_of([], DetectorConfig()) == []

    def test_raising_threshold_never_adds_cuts(self):
        rng = random.Random(2)
        deltas = [rng.uniform(0, 80) for _ in range(200)]
        stats = stats_with_deltas(deltas)
        counts = [
            len(cuts_of(stats, DetectorConfig(cut_threshold=t)))
            for t in (10, 20, 30, 50, 70)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_linear_scan_oracle(self):
        rng = random.Random(7)
        deltas = [rng.choice([0, 5, 35, 90]) for _ in range(300)]
        config = DetectorConfig(min_scene_frames=15)
        expected = []
        for i, d in enumerate(deltas, start=1):
            if d >= config.cut_threshold and (
                not expected or i - expected[-1] >= config.min_scene_frames
            ):
                expected.append(i)
        assert cuts_of(stats_with_deltas(deltas), config) == expected


class TestDetectFades:
    def test_simple_dip(self):
        stats = make_stats([50, 50, 0, 0, 50])
        assert fades_of(stats, DetectorConfig()) == [(2, 4)]

    def test_no_fades(self):
        stats = make_stats([50, 80, 12.0, 200])
        assert fades_of(stats, DetectorConfig()) == []

    def test_single_black_frame_yields_one_fade(self):
        stats = make_stats([50, 50, 0, 50, 50])
        fades = fades_of(stats, DetectorConfig())
        assert len(fades) == 1
        start, end = fades[0]
        assert start <= 2 < end

    def test_unterminated_fade_closes_at_final_frame(self):
        stats = make_stats([50, 50, 0, 0])
        assert fades_of(stats, DetectorConfig()) == [(2, 3)]

    def test_lowering_threshold_shrinks_fade_intervals(self):
        # interval counts are not monotone in the threshold (one wide dip can
        # split into two at a lower threshold), but every lower-threshold
        # interval must sit inside some higher-threshold interval
        rng = random.Random(4)
        values = [rng.uniform(0, 50) for _ in range(300)]
        stats = make_stats(values)
        thresholds = (30, 20, 12, 6, 2)
        by_threshold = [
            fades_of(stats, DetectorConfig(fade_threshold=t)) for t in thresholds
        ]
        for wider, narrower in zip(by_threshold, by_threshold[1:]):
            for start, end in narrower:
                assert any(a <= start and end <= b for a, b in wider)

    def test_linear_scan_oracle(self):
        rng = random.Random(9)
        values = [rng.choice([0.0, 5.0, 40.0, 200.0]) for _ in range(300)]
        config = DetectorConfig()
        expected = []
        start = None
        for i, v in enumerate(values):
            if start is None:
                if v < config.fade_threshold:
                    start = i
            elif v >= config.fade_threshold:
                expected.append((start, i))
                start = None
        if start is not None:
            expected.append((start, len(values) - 1))
        assert fades_of(make_stats(values), config) == expected


class TestMergeSceneLists:
    def test_no_boundaries(self):
        scenes = merge_scene_lists([], [], 300, SPEC, DetectorConfig())
        assert len(scenes) == 1
        scene = scenes[0]
        assert (scene.start_frame, scene.end_frame) == (0, 300)
        assert scene.opens_with == "start-of-video"
        assert scene.closes_with == "end-of-video"
        assert scene.end_s == pytest.approx(10.0)

    def test_single_cut(self):
        scenes = merge_scene_lists([150], [], 300, SPEC, DetectorConfig())
        assert [(s.start_frame, s.end_frame) for s in scenes] == [(0, 150), (150, 300)]
        assert scenes[0].closes_with == "cut"
        assert scenes[1].opens_with == "cut"

    def test_fade_boundary_at_midpoint(self):
        scenes = merge_scene_lists([], [(90, 100)], 300, SPEC, DetectorConfig())
        assert [(s.start_frame, s.end_frame) for s in scenes] == [(0, 95), (95, 300)]
        assert scenes[0].closes_with == "fade-out"
        assert scenes[1].opens_with == "fade-in"

    def test_cut_coalesces_with_fade_midpoint(self):
        # fade (98, 102) has midpoint 100, same as the cut; one boundary stays
        scenes = merge_scene_lists([100], [(98, 102)], 300, SPEC, DetectorConfig())
        assert [(s.start_frame, s.end_frame) for s in scenes] == [(0, 100), (100, 300)]
        assert scenes[0].closes_with == "fade-out"

    def test_coalescing_keeps_earliest(self):
        config = DetectorConfig(merge_tolerance_s=0.1)  # 3 frames at 30 fps
        scenes = merge_scene_lists([100, 102], [], 300, SPEC, config)
        assert [s.start_frame for s in scenes] == [0, 100]

    def test_empty_video(self):
        with pytest.raises(EmptyVideoError):
            merge_scene_lists([], [], 0, SPEC, DetectorConfig())

    def test_tiling_on_random_boundary_sets(self):
        rng = random.Random(13)
        for _ in range(50):
            total = rng.randint(1, 2000)
            cuts = sorted(rng.sample(range(1, max(total, 2)), k=min(rng.randint(0, 8), total - 1)))
            fades = []
            for _ in range(rng.randint(0, 3)):
                a = rng.randrange(total)
                fades.append((a, min(a + rng.randint(0, 30), total - 1)))
            scenes = merge_scene_lists(cuts, fades, total, SPEC, DetectorConfig())
            assert scenes[0].start_frame == 0
            assert scenes[-1].end_frame == total
            for left, right in zip(scenes, scenes[1:]):
                assert left.end_frame == right.start_frame
                assert left.end_frame > left.start_frame
            assert [s.id for s in scenes] == list(range(len(scenes)))

    def test_determinism(self):
        args = ([40, 200], [(90, 110)], 300, SPEC, DetectorConfig())
        assert merge_scene_lists(*args) == merge_scene_lists(*args)


class TestSceneJson:
    def roundtrip(self, scenes, fps=(30, 1), total=300):
        text = scenes_to_json(scenes, fps, total)
        parsed, parsed_fps, parsed_total = scenes_from_json(text)
        assert parsed_fps == fps
        assert parsed_total == total
        return parsed

    def test_roundtrip_identity(self):
        scenes = merge_scene_lists([100], [(200, 210)], 300, SPEC, DetectorConfig())
        assert self.roundtrip(scenes) == scenes

    def test_roundtrip_fractional_fps(self):
        spec = FrameSpec(width=64, height=36, fps_num=30000, fps_den=1001)
        scenes = merge_scene_lists([77], [], 200, spec, DetectorConfig())
        text = scenes_to_json(scenes, (30000, 1001), 200)
        parsed, _, _ = scenes_from_json(text)
        assert parsed == scenes

    def test_rejects_gap(self):
        scenes = merge_scene_lists([100], [], 300, SPEC, DetectorConfig())
        text = scenes_to_json(scenes, (30, 1), 300).replace('"start_frame": 100', '"start_frame": 101')
        with pytest.raises(MalformedSourceError):
            scenes_from_json(text)

    def test_rejects_bad_transition_kind(self):
        scenes = merge_scene_lists([], [], 300, SPEC, DetectorConfig())
        text = scenes_to_json(scenes, (30, 1), 300).replace("start-of-video", "warp")
        with pytest.raises(MalformedSourceError):
            scenes_from_json(text)

    def test_rejects_garbage(self):
        with pytest.raises(MalformedSourceError):
            scenes_from_json("{}")
