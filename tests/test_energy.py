import json
import random
import statistics

import pytest

from vidscore.energy import (
    DirectionSlope,
    EnergyLabel,
    assign_tempo_band,
    choose_direction_slope,
    classify_energy,
    load_detections,
)
from vidscore.errors import (
    EmptyInputError,
    IncompleteDetectionsError,
    MalformedDetectionsError,
)
from vidscore.scenes import DetectorConfig, FrameSpec, Scene, merge_scene_lists

SPEC = FrameSpec(width=64, height=36, fps_num=30, fps_den=1)


def two_scenes():
    return merge_scene_lists([100], [], 300, SPEC, DetectorConfig())


class TestLoadDetections:
    def test_per_scene_passthrough(self, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_scene": {"0": 2, "1": 7}}))
        assert load_detections(str(path), two_scenes()) == {0: 2, 1: 7}

    def test_per_frame_mean_rounds_half_up(self, tmp_path):
        records = [{"frame": f, "count": c} for f, c in [(0, 1), (50, 2), (99, 3)]]
        records += [{"frame": 150, "count": 3}, {"frame": 200, "count": 4}]
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_frame": records}))
        # scene 0 mean 2.0 -> 2; scene 1 mean 3.5 rounds half-up -> 4
        assert load_detections(str(path), two_scenes()) == {0: 2, 1: 4}

    def test_per_frame_records_at_scene_edges(self, tmp_path):
        bounds = [(0, 100), (100, 101), (101, 250), (250, 300)]  # one single-frame scene
        scenes = [Scene(i, start, end, start / 30, end / 30, "cut", "cut")
                  for i, (start, end) in enumerate(bounds)]
        records = [{"frame": frame, "count": 10 * scene.id}
                   for scene in scenes for frame in (scene.start_frame, scene.end_frame - 1)]
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_frame": records}))
        assert load_detections(str(path), scenes) == {0: 0, 1: 10, 2: 20, 3: 30}

    @pytest.mark.parametrize("frame", [-1, 300])
    def test_per_frame_record_outside_the_video(self, tmp_path, frame):
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_frame": [{"frame": 0, "count": 1},
                                                  {"frame": frame, "count": 1}]}))
        with pytest.raises(MalformedDetectionsError, match="outside the video"):
            load_detections(str(path), two_scenes())

    def test_missing_scene(self, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_scene": {"0": 2}}))
        with pytest.raises(IncompleteDetectionsError):
            load_detections(str(path), two_scenes())

    def test_negative_count(self, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_scene": {"0": 2, "1": -1}}))
        with pytest.raises(MalformedDetectionsError):
            load_detections(str(path), two_scenes())

    @pytest.mark.parametrize("doc", [
        {"per_frame": [{"frame": 0, "count": float("nan")}, {"frame": 150, "count": 1}]},
        {"per_frame": [{"frame": 0, "count": 1}, {"frame": 150, "count": float("inf")}]},
        {"per_scene": {"0": float("inf"), "1": 2}},
        {"per_scene": {"0": 2, "1": float("nan")}},
        {"per_scene": {"0": 2, "1": float("-inf")}},
    ])
    def test_non_finite_count(self, tmp_path, doc):
        path = tmp_path / "det.json"
        path.write_text(json.dumps(doc))  # written as NaN / Infinity, which json reads back
        with pytest.raises(MalformedDetectionsError, match="bad count"):
            load_detections(str(path), two_scenes())

    def test_per_frame_sum_overflow(self, tmp_path):
        records = [{"frame": 0, "count": 1e308}, {"frame": 1, "count": 1e308},
                   {"frame": 150, "count": 1}]
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"per_frame": records}))
        with pytest.raises(MalformedDetectionsError, match="overflow"):
            load_detections(str(path), two_scenes())

    def test_unknown_shape(self, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(json.dumps({"objects": []}))
        with pytest.raises(MalformedDetectionsError):
            load_detections(str(path), two_scenes())

    @pytest.mark.parametrize("doc", [
        3,
        "per_scene",
        {"per_scene": [2, 7]},
        {"per_frame": 5},
    ])
    def test_wrongly_typed_document(self, tmp_path, doc):
        path = tmp_path / "det.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedDetectionsError):
            load_detections(str(path), two_scenes())


def oracle_labels(counts):
    """Direct mean / population-std classification, independently coded."""
    values = [counts[k] for k in sorted(counts)]
    mu = statistics.fmean(values)
    sigma = statistics.pstdev(values)
    out = {}
    for key in sorted(counts):
        c = counts[key]
        if sigma == 0:
            out[key] = EnergyLabel.MEDIUM
        elif c < mu - sigma:
            out[key] = EnergyLabel.LOW
        elif c >= mu + sigma:
            out[key] = EnergyLabel.HIGH
        else:
            out[key] = EnergyLabel.MEDIUM
    return out


class TestClassifyEnergy:
    def test_three_point_spread(self):
        labels = classify_energy({0: 0, 1: 5, 2: 10})
        assert labels == {0: EnergyLabel.LOW, 1: EnergyLabel.MEDIUM, 2: EnergyLabel.HIGH}

    def test_all_equal_all_medium(self):
        labels = classify_energy({0: 4, 1: 4, 2: 4})
        assert set(labels.values()) == {EnergyLabel.MEDIUM}

    def test_single_scene_is_medium(self):
        assert classify_energy({0: 9}) == {0: EnergyLabel.MEDIUM}

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            classify_energy({})

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(60)
        for _ in range(300):
            n = rng.randint(1, 20)
            counts = {i: rng.randint(0, 40) for i in range(n)}
            assert classify_energy(counts) == oracle_labels(counts)

    def test_affine_rescaling_preserves_labels(self):
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(1, 15)
            counts = {i: rng.randint(0, 30) for i in range(n)}
            a = rng.randint(1, 9)
            b = rng.randint(0, 50)
            scaled = {i: a * c + b for i, c in counts.items()}
            assert classify_energy(counts) == classify_energy(scaled)


class TestAssignTempoBand:
    def test_thirds_of_60_120(self):
        assert assign_tempo_band(EnergyLabel.LOW, (60, 120)) == (60, 80)
        assert assign_tempo_band(EnergyLabel.MEDIUM, (60, 120)) == (80, 100)
        assert assign_tempo_band(EnergyLabel.HIGH, (60, 120)) == (100, 120)

    def test_degenerate_range(self):
        for label in EnergyLabel:
            assert assign_tempo_band(label, (90, 90)) == (90, 90)

    def test_bands_tile_the_range(self):
        rng = random.Random(3)
        for _ in range(100):
            lo = rng.randint(40, 160)
            hi = lo + rng.randint(0, 90)
            low = assign_tempo_band(EnergyLabel.LOW, (lo, hi))
            med = assign_tempo_band(EnergyLabel.MEDIUM, (lo, hi))
            high = assign_tempo_band(EnergyLabel.HIGH, (lo, hi))
            assert low[0] == lo and high[1] == hi
            assert low[1] == med[0] and med[1] == high[0]
            assert low[0] <= low[1] <= med[1] <= high[1]

    def test_flooring_of_interior_cuts(self):
        assert assign_tempo_band(EnergyLabel.LOW, (60, 110)) == (60, 76)  # 60+50/3=76.67
        assert assign_tempo_band(EnergyLabel.MEDIUM, (60, 110)) == (76, 93)


L, M, H = EnergyLabel.LOW, EnergyLabel.MEDIUM, EnergyLabel.HIGH


class TestChooseDirectionSlope:
    def test_low_then_high(self):
        assert choose_direction_slope([L, H]) == [
            DirectionSlope("up", "steep"),
            DirectionSlope("up", "stay"),
        ]

    def test_flat_medium(self):
        assert choose_direction_slope([M, M]) == [DirectionSlope("up", "stay")] * 2

    def test_descending(self):
        assert choose_direction_slope([H, M, L]) == [
            DirectionSlope("down", "gradual"),
            DirectionSlope("down", "gradual"),
            DirectionSlope("up", "stay"),
        ]

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            choose_direction_slope([])

    def test_exhaustive_pair_table(self):
        expected = {
            (L, L): ("up", "stay"), (L, M): ("up", "gradual"), (L, H): ("up", "steep"),
            (M, L): ("down", "gradual"), (M, M): ("up", "stay"), (M, H): ("up", "gradual"),
            (H, L): ("down", "steep"), (H, M): ("down", "gradual"), (H, H): ("up", "stay"),
        }
        for (cur, nxt), (direction, slope) in expected.items():
            result = choose_direction_slope([cur, nxt])[0]
            assert (result.direction, result.slope) == (direction, slope)

    def test_final_scene_rule(self):
        for label in EnergyLabel:
            result = choose_direction_slope([M, label])
            assert result[-1] == DirectionSlope("up", "stay")

    def test_output_length(self):
        rng = random.Random(8)
        for _ in range(50):
            labels = [rng.choice([L, M, H]) for _ in range(rng.randint(1, 12))]
            assert len(choose_direction_slope(labels)) == len(labels)
