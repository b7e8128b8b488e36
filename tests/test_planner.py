import random

import pytest

from vidscore.energy import DirectionSlope, EnergyLabel
from vidscore.errors import (
    EmptyInputError,
    NoConsistentTempoError,
    PlanParseError,
    UnplannableSectionError,
)
from vidscore.frames import FrameSpec
from vidscore.moods import load_mood
from vidscore.planner import (
    Fit,
    SectionDraft,
    enumerate_fits,
    finalize_plan,
    fit_tolerance,
    harmonize_tempo,
    parse_ini,
    plan_from_ini,
    plan_to_ini,
    roles_for_count,
    sections_from_scenes,
)
from vidscore.scenes import DetectorConfig, merge_scene_lists

from conftest import make_mood, random_valid_plan

M = EnergyLabel.MEDIUM
STAY = DirectionSlope("up", "stay")


class TestRoles:
    def test_four_scenes(self):
        assert roles_for_count(4) == ["intro", "verse", "chorus", "coda"]

    def test_single_scene(self):
        assert roles_for_count(1) == ["intro"]

    def test_two_scenes(self):
        assert roles_for_count(2) == ["intro", "coda"]

    def test_interior_alternation(self):
        assert roles_for_count(7) == [
            "intro", "verse", "chorus", "verse", "chorus", "verse", "coda",
        ]

    def test_sections_from_scenes(self):
        spec = FrameSpec(width=4, height=4, fps_num=30, fps_den=1)
        scenes = merge_scene_lists([150], [], 300, spec, DetectorConfig())
        drafts = sections_from_scenes(scenes)
        assert [d.section_id for d in drafts] == [0, 1]
        assert [d.role for d in drafts] == ["intro", "coda"]
        assert drafts[0].duration_s == pytest.approx(5.0)

    def test_empty_scene_list(self):
        with pytest.raises(EmptyInputError):
            sections_from_scenes([])


def brute_force_fits(duration, mood, tol):
    """Exhaustive and independent: tries every (tempo, signature, phrases)."""
    out = []
    for tempo in range(mood.tempo_range[0], mood.tempo_range[1] + 1):
        for sig in sorted(mood.time_signatures):
            n, d = sig
            phrase = mood.phrase_length_bars * n * (4.0 / d) * 60.0 / tempo
            for p in range(1, int(duration / phrase) + 3):
                if abs(p * phrase - duration) <= tol:
                    out.append((tempo, sig, p))
    return out


class TestEnumerateFits:
    def test_exact_single_combination(self):
        mood = make_mood((120, 120), [(4, 4)])
        assert enumerate_fits(64.0, mood, 0.010) == [Fit(120, (4, 4), 8)]

    def test_non_integer_phrases_is_empty(self):
        mood = make_mood((120, 120), [(4, 4)])
        assert enumerate_fits(60.0, mood, 0.010) == []

    def test_three_four_at_90(self):
        mood = make_mood((90, 90), [(3, 4)])
        assert enumerate_fits(40.0, mood, 0.010) == [Fit(90, (3, 4), 5)]

    def test_ordering(self):
        mood = make_mood((60, 120), [(4, 4), (3, 4), (6, 8)])
        fits = enumerate_fits(48.0, mood, 0.010)
        assert fits == sorted(fits)
        assert len(fits) >= 2

    def test_zero_duration(self):
        mood = make_mood((90, 90), [(4, 4)])
        assert enumerate_fits(0.0, mood) == []

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(500)
        names = ["inspire", "ember", "drive", "bloom", "noir", "tide", "summit", "clockwork"]
        for _ in range(60):
            mood = load_mood(rng.choice(names))
            duration = rng.uniform(5.0, 120.0)
            assert enumerate_fits(duration, mood, 0.010) == brute_force_fits(
                duration, mood, 0.010
            )


class TestFitTolerance:
    def test_caps_at_ten_ms(self):
        assert fit_tolerance(1 / 30) == 0.010

    def test_half_frame_for_fast_video(self):
        assert fit_tolerance(1 / 240) == pytest.approx(1 / 480)

    def test_default(self):
        assert fit_tolerance() == 0.010


class TestHarmonizeTempo:
    def test_global_intersection(self):
        fits = [
            [Fit(100, (4, 4), 2), Fit(120, (4, 4), 2)],
            [Fit(120, (3, 4), 3), Fit(140, (3, 4), 3)],
        ]
        trimmed = harmonize_tempo(fits, "global")
        assert [{f.tempo for f in fl} for fl in trimmed] == [{120}, {120}]

    def test_global_empty_intersection(self):
        fits = [[Fit(100, (4, 4), 2)], [Fit(140, (3, 4), 3)]]
        with pytest.raises(NoConsistentTempoError):
            harmonize_tempo(fits, "global")

    def test_band_filter(self):
        fits = [[Fit(90, (4, 4), 2), Fit(110, (4, 4), 2)]]
        trimmed = harmonize_tempo(fits, "per-scene-energy", bands=[(100, 120)])
        assert trimmed == [[Fit(110, (4, 4), 2)]]

    def test_band_fallback_to_full_range(self):
        fits = [[Fit(90, (4, 4), 2)]]
        trimmed = harmonize_tempo(fits, "per-scene-energy", bands=[(100, 120)])
        assert trimmed == [[Fit(90, (4, 4), 2)]]


class TestFinalizePlan:
    def setup_plan(self, seed, candidates=None, mood=None):
        mood = mood or make_mood((60, 120), [(4, 4), (3, 4)])
        drafts = [SectionDraft(0, 16.0, "intro"), SectionDraft(1, 16.0, "coda")]
        if candidates is None:
            candidates = [enumerate_fits(16.0, mood, 0.010)] * 2
        return finalize_plan(
            drafts, candidates, [M, M], [STAY, STAY], mood, "simple", seed
        )

    def test_deterministic(self):
        assert self.setup_plan(42) == self.setup_plan(42)

    def test_seed_variation(self):
        plans = {self.setup_plan(seed).sections for seed in range(100)}
        assert len(plans) > 1

    def test_singleton_candidate(self):
        candidates = [[Fit(60, (4, 4), 1)], [Fit(60, (4, 4), 1)]]
        for seed in range(20):
            plan = self.setup_plan(seed, candidates=candidates)
            assert all(s.tempo == 60 and s.phrases == 1 for s in plan.sections)

    def test_empty_candidates(self):
        with pytest.raises(UnplannableSectionError):
            self.setup_plan(1, candidates=[[Fit(60, (4, 4), 1)], []])

    def test_shared_tempo_single_value(self):
        mood = make_mood((60, 120), [(4, 4), (3, 4)])
        drafts = [SectionDraft(i, 16.0, r) for i, r in enumerate(["intro", "verse", "coda"])]
        fits = harmonize_tempo([enumerate_fits(16.0, mood, 0.010)] * 3, "global")
        plan = finalize_plan(
            drafts, fits, [M] * 3, [STAY] * 3, mood, "simple", 7, shared_tempo=True
        )
        assert len({s.tempo for s in plan.sections}) == 1

    def test_durations_within_tolerance(self):
        mood = make_mood((60, 120), [(4, 4), (3, 4)])
        for seed in range(25):
            plan = self.setup_plan(seed, mood=mood)
            for section in plan.sections:
                assert abs(
                    section.realized_s(mood.phrase_length_bars) - section.duration_s
                ) <= 0.010

    def test_metadata_attached(self):
        plan = self.setup_plan(3)
        assert plan.roles == ("intro", "coda")
        assert plan.complexity == "simple"
        assert plan.total_duration_s == pytest.approx(32.0)
        assert [s.energy for s in plan.sections] == [M, M]


class TestPlanIni:
    def test_roundtrip_identity_on_random_plans(self):
        rng = random.Random(9000)
        for _ in range(40):
            plan = random_valid_plan(rng)
            text = plan_to_ini(plan)
            assert plan_from_ini(text) == plan

    def test_contains_expected_keys(self):
        rng = random.Random(5)
        plan = random_valid_plan(rng, mood=load_mood("inspire"))
        text = plan_to_ini(plan)
        assert "[composition]" in text
        assert f"tempo = {plan.sections[0].tempo}" in text
        n, d = plan.sections[0].time_signature
        assert f"time_sig = {n}/{d}" in text

    def test_section_id_gap_rejected(self):
        text = (
            "[composition]\nduration = 32.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
            "[section0]\ntime_sig = 4/4\ntempo = 96\nenergy = medium\n"
            "duration = 40.0\ndirection = up\nslope = stay\n"
            "[section2]\ntime_sig = 4/4\ntempo = 96\nenergy = medium\n"
            "duration = 40.0\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(PlanParseError, match="gap|0..1|ids"):
            parse_ini(text)

    def test_unknown_energy_rejected_with_line(self):
        text = (
            "[composition]\nduration = 10.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
            "[section0]\ntime_sig = 4/4\ntempo = 96\nenergy = extreme\n"
            "duration = 10.0\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(PlanParseError, match="line 9"):
            parse_ini(text)

    def test_unknown_key_rejected(self):
        text = (
            "[composition]\nduration = 10.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\nswing = heavy\n"
        )
        with pytest.raises(PlanParseError, match="swing"):
            parse_ini(text)

    def test_malformed_line_reports_number(self):
        with pytest.raises(PlanParseError, match="line 2"):
            parse_ini("[composition]\nduration 10\n")

    def test_duration_range_parses(self):
        text = (
            "[composition]\nduration = 10.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 8 to 12\ndirection = up\nslope = stay\n"
        )
        doc = parse_ini(text)
        assert doc.entries[0].duration == (8.0, 12.0)
        assert doc.has_ranges


class TestResolvePlan:
    def header(self):
        return (
            "[composition]\nduration = 8.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
        )

    def test_range_resolves_to_exact_duration(self):
        text = self.header() + (
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 8 to 12\ndirection = up\nslope = stay\n"
        )
        plan = plan_from_ini(text)
        section = plan.sections[0]
        assert section.phrases == 1
        assert section.duration_s == pytest.approx(8.0)
        # serialized output carries the exact resolved duration, not a range
        assert "to" not in plan_to_ini(plan).split("duration =")[2]

    def test_range_tie_resolves_to_lower_phrase_count(self):
        # 8 s phrases; midpoint 20 is 4 s from both 2 and 3 phrases
        text = self.header() + (
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 14 to 26\ndirection = up\nslope = stay\n"
        )
        section = plan_from_ini(text).sections[0]
        assert section.phrases == 2
        assert section.duration_s == pytest.approx(16.0)

    def test_exact_duration_must_fit(self):
        text = self.header() + (
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 10.0\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(UnplannableSectionError):
            plan_from_ini(text)

    def test_unsatisfiable_range(self):
        text = self.header() + (
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 9 to 10\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(UnplannableSectionError):
            plan_from_ini(text)

    def test_total_must_match_section_sum(self):
        text = (
            "[composition]\nduration = 99.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 8.0\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(PlanParseError, match="section total"):
            plan_from_ini(text)
