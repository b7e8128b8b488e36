import math
import random

import pytest

from vidscore.energy import (
    DirectionSlope,
    EnergyLabel,
    assign_tempo_band,
    choose_direction_slope,
)
from vidscore.errors import (
    EmptyInputError,
    NoConsistentTempoError,
    PlanParseError,
    UnplannableSectionError,
)
from vidscore.moods import list_moods, load_mood
from vidscore.planner import (
    DEFAULT_TOLERANCE_S,
    MAX_SECTION_BARS,
    PLANNER_MODES,
    Fit,
    enumerate_fits,
    finalize_plan,
    fit_tolerance,
    harmonize_tempo,
    parse_ini,
    phrase_seconds,
    plan_to_ini,
    resolve_plan,
    sections_from_scenes,
)
from vidscore.scenes import DetectorConfig, FrameSpec, merge_scene_lists

from conftest import make_mood, random_valid_plan

M = EnergyLabel.MEDIUM
STAY = DirectionSlope("up", "stay")


class TestSectionsFromScenes:
    def test_sections_from_scenes(self):
        spec = FrameSpec(width=4, height=4, fps_num=30, fps_den=1)
        scenes = merge_scene_lists([150], [], 300, spec, DetectorConfig())
        durations = sections_from_scenes(scenes)
        assert len(durations) == 2  # a section's id is its position
        assert durations[0] == pytest.approx(5.0)

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

    def test_fits_stay_within_the_bar_budget(self):
        # inspire at 30000 s: 4/4 at 88 BPM is 11000 bars, at 72 BPM 9000,
        # so the plan stage never writes a section that parse_ini refuses
        mood = load_mood("inspire")
        fits = enumerate_fits(30000.0, mood)
        every = brute_force_fits(30000.0, mood, 0.010)
        assert fits == [Fit(*fit) for fit in every
                        if fit[2] * mood.phrase_length_bars <= MAX_SECTION_BARS]
        assert 0 < len(fits) < len(every)

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


class TestHarmonizeTempo:
    def test_global_intersection(self):
        fits = [
            [Fit(100, (4, 4), 2), Fit(120, (4, 4), 2)],
            [Fit(120, (3, 4), 3), Fit(140, (3, 4), 3)],
        ]
        trimmed = harmonize_tempo(fits, rng_seed=0)
        assert [{f.tempo for f in fl} for fl in trimmed] == [{120}, {120}]

    def test_global_empty_intersection(self):
        fits = [[Fit(100, (4, 4), 2)], [Fit(140, (3, 4), 3)]]
        with pytest.raises(NoConsistentTempoError):
            harmonize_tempo(fits, rng_seed=0)

    def test_band_filter(self):
        fits = [[Fit(90, (4, 4), 2), Fit(110, (4, 4), 2)]]
        trimmed = harmonize_tempo(fits, rng_seed=0, bands=[(100, 120)])
        assert trimmed == [[Fit(110, (4, 4), 2)]]

    def test_band_fallback_to_full_range(self):
        fits = [[Fit(90, (4, 4), 2)]]
        trimmed = harmonize_tempo(fits, rng_seed=0, bands=[(100, 120)])
        assert trimmed == [[Fit(90, (4, 4), 2)]]


class TestFinalizePlan:
    def setup_plan(self, seed, candidates=None, mood=None):
        mood = mood or make_mood((60, 120), [(4, 4), (3, 4)])
        if candidates is None:
            candidates = [enumerate_fits(16.0, mood, 0.010)] * 2
        return finalize_plan(
            [16.0, 16.0], candidates, [M, M], [STAY, STAY], mood.name, "simple", seed
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

    def test_shared_tempo_single_value(self):
        mood = make_mood((60, 120), [(4, 4), (3, 4)])
        fits = harmonize_tempo([enumerate_fits(16.0, mood, 0.010)] * 3, rng_seed=7)
        plan = finalize_plan([16.0] * 3, fits, [M] * 3, [STAY] * 3, mood.name, "simple", 7)
        assert len({s.tempo for s in plan.sections}) == 1

    def test_durations_within_tolerance(self):
        mood = make_mood((60, 120), [(4, 4), (3, 4)])
        for seed in range(25):
            plan = self.setup_plan(seed, mood=mood)
            for section in plan.sections:
                phrase_s = phrase_seconds(
                    section.tempo, section.time_signature, mood.phrase_length_bars
                )
                assert abs(section.phrases * phrase_s - section.duration_s) <= 0.010

    def test_metadata_attached(self):
        plan = self.setup_plan(3)
        assert plan.complexity == "simple"
        assert plan.total_duration_s == pytest.approx(32.0)
        assert [s.energy for s in plan.sections] == [M, M]


class TestPlanInterchange:
    """The plan the plan stage builds is the plan compose reads back from
    plan.ini, phrase counts included."""

    def stage_plan(self, durations, mood, mode, seed, labels=None):
        """The plan stage's planner calls, in stage_plan's order."""
        labels = labels or [M] * len(durations)
        tolerance = fit_tolerance(1 / 30)
        fits = [enumerate_fits(duration, mood, tolerance) for duration in durations]
        bands = None
        if mode == "per-scene-energy":
            bands = [assign_tempo_band(label, mood.tempo_range) for label in labels]
        fits = harmonize_tempo(fits, seed, bands)
        return finalize_plan(durations, fits, labels, choose_direction_slope(labels),
                             mood.name, "simple", seed)

    def assert_round_trips(self, plan, mood):
        assert resolve_plan(parse_ini(plan_to_ini(plan)), mood) == plan

    def test_last_section_keeps_its_scene(self):
        # 0.3 s phrases: every 0.5901 s section is 2 phrases, 9.9 ms short,
        # and the 29 before the last one sum to 0.29 s short of the scenes
        mood = make_mood((200, 200), [(2, 8)], phrase_bars=1)
        plan = self.stage_plan([0.5901] * 30, mood, "global", 1)
        assert [s.phrases for s in plan.sections] == [2] * 30
        self.assert_round_trips(plan, mood)

    @pytest.mark.parametrize("mode", PLANNER_MODES)
    def test_random_scene_like_plans(self, mode):
        # scenes a little off whole phrases at a shared tempo, as cut by
        # hand; each lands within the fit tolerance of some phrase count
        rng = random.Random(4100)
        for trial in range(40):
            mood = load_mood(rng.choice(list_moods()))
            tempo = rng.randint(*mood.tempo_range)
            durations = []
            for _ in range(rng.randint(1, 8)):
                signature = rng.choice(sorted(mood.time_signatures))
                phrase_s = phrase_seconds(tempo, signature, mood.phrase_length_bars)
                durations.append(rng.randint(1, 4) * phrase_s + rng.uniform(-0.009, 0.009))
            labels = [rng.choice(list(EnergyLabel)) for _ in durations]
            plan = self.stage_plan(durations, mood, mode, trial, labels)
            self.assert_round_trips(plan, mood)


class TestPlanIni:
    def test_roundtrip_identity_on_random_plans(self):
        rng = random.Random(9000)
        for _ in range(40):
            plan = random_valid_plan(rng)
            text = plan_to_ini(plan)
            assert resolve_plan(parse_ini(text)) == plan

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

    @pytest.mark.parametrize("repeat, line", [
        ("tempo = 120\n", 13),  # a key repeated in the same block
        ("[composition]\nseed = 7\n", 14),  # the block's name opened again
    ], ids=["same block", "block reopened"])
    def test_repeated_key_rejected_with_line(self, repeat, line):
        text = (
            "[composition]\nduration = 10.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
            "[section0]\ntime_sig = 4/4\ntempo = 90\nenergy = medium\n"
            "duration = 10.0\ndirection = up\nslope = stay\n"
        ) + repeat
        with pytest.raises(PlanParseError, match=f"line {line}: .*twice"):
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
        assert doc.entries[0].duration_s == (8.0, 12.0)
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
        plan = resolve_plan(parse_ini(text))
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
        section = resolve_plan(parse_ini(text)).sections[0]
        assert section.phrases == 2
        assert section.duration_s == pytest.approx(16.0)

    def test_exact_duration_must_fit(self):
        text = self.header() + (
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 10.0\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(UnplannableSectionError):
            resolve_plan(parse_ini(text))

    def test_unsatisfiable_range(self):
        text = self.header() + (
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 9 to 10\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(UnplannableSectionError):
            resolve_plan(parse_ini(text))

    def test_total_must_match_section_sum(self):
        text = (
            "[composition]\nduration = 99.0\nmood = inspire\n"
            "complexity = simple\nseed = 1\n"
            "[section0]\ntime_sig = 3/4\ntempo = 90\nenergy = medium\n"
            "duration = 8.0\ndirection = up\nslope = stay\n"
        )
        with pytest.raises(PlanParseError, match="section total"):
            resolve_plan(parse_ini(text))

    def section(self, duration, tempo=120, signature="4/4"):
        total = duration if isinstance(duration, float) else 8.0  # ranges set their own
        return self.header().replace("duration = 8.0", f"duration = {total}") + (
            f"[section0]\ntime_sig = {signature}\ntempo = {tempo}\nenergy = medium\n"
            f"duration = {duration}\ndirection = up\nslope = stay\n"
        )

    def test_range_matches_a_scan_of_every_phrase_count(self):
        """Oracle: the nearest count found by scanning the whole range, ties
        to the lower count, on small ranges of random width and alignment."""
        rng = random.Random(12)
        mood = load_mood("inspire")
        for _ in range(400):
            tempo = rng.randint(*mood.tempo_range)
            signature = rng.choice(sorted(mood.time_signatures))
            phrase_s = phrase_seconds(tempo, signature, mood.phrase_length_bars)
            lo = rng.choice([rng.uniform(0.01, 6.0), rng.randint(1, 6) * phrase_s])
            hi = lo + rng.choice([rng.uniform(0.0, 5.0), rng.randint(0, 5) * phrase_s / 2])
            doc = parse_ini(self.section(f"{lo!r} to {hi!r}", tempo, "%d/%d" % signature))
            first = max(1, math.ceil((lo - DEFAULT_TOLERANCE_S) / phrase_s))
            last = math.floor((hi + DEFAULT_TOLERANCE_S) / phrase_s)
            if last < first:
                with pytest.raises(UnplannableSectionError):
                    resolve_plan(doc, mood)
                continue
            mid = (lo + hi) / 2.0
            want = min(range(first, last + 1), key=lambda p: (abs(p * phrase_s - mid), p))
            assert resolve_plan(doc, mood).sections[0].phrases == want, (lo, hi, tempo)

    def test_widest_range_the_budget_allows(self):
        # 2 s bars, 8 s phrases: 20000 s is the budget, and the midpoint
        # 10000.5 s is nearest to 1250 phrases
        section = resolve_plan(parse_ini(self.section("1 to 20000"))).sections[0]
        assert section.phrases == 1250 and section.duration_s == 10000.0

    def test_section_at_the_bar_budget_is_kept(self):
        doc = parse_ini(self.section(2.0 * MAX_SECTION_BARS))
        assert resolve_plan(doc).sections[0].phrases == MAX_SECTION_BARS // 4

    @pytest.mark.parametrize("duration, tempo, signature", [
        (2.0 * MAX_SECTION_BARS + 8.0, 120, "4/4"),  # one phrase over
        ("1 to 1e7", 120, "4/4"),
        (f"1 to {2.0 * MAX_SECTION_BARS + 2.0}", 120, "4/4"),  # a range's upper end counts
        (1500.0, 1000, "2/8"),  # 0.06 s bars
    ])
    def test_section_over_the_bar_budget_exits_3(self, duration, tempo, signature):
        with pytest.raises(PlanParseError, match=r"^line 6: section 0 spans \d+ bars, "
                                                 r"over the budget of 10000$") as err:
            parse_ini(self.section(duration, tempo, signature))
        assert err.value.exit_code == 3
