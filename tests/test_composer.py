import random
from importlib import resources

import pytest

from vidscore.composer import (
    PPQN,
    SIXTEENTH_TICKS,
    _pc_in_register,
    active_layer_count,
    compose_plan,
    compose_section,
    load_seed_melody,
)
from vidscore.energy import EnergyLabel
from vidscore.errors import EmptyMelodyError
from vidscore.midi import (InstrumentMap, MidiDocument, MidiEvent, MidiTrack, read_smf,
                           write_smf)
from vidscore.moods import load_mood
from vidscore.planner import CompositionPlan, SectionSpec

from conftest import make_mood, random_valid_plan, score_duration_s


def section(
    sid=0, signature=(4, 4), tempo=120, energy=EnergyLabel.MEDIUM,
    phrases=2, direction="up", slope="stay", phrase_bars=4,
):
    n, d = signature
    duration = phrases * phrase_bars * n * (4.0 / d) * 60.0 / tempo
    return SectionSpec(
        section_id=sid,
        time_signature=signature,
        tempo=tempo,
        energy=energy,
        duration_s=duration,
        phrases=phrases,
        direction=direction,
        slope=slope,
    )


def document_with_notes(notes, ppqn=PPQN):
    """notes: (tick, pitch, velocity, duration) on one track."""
    events = []
    for tick, pitch, velocity, duration in notes:
        events.append(MidiEvent(tick, "note_on", 0, pitch, velocity))
        events.append(MidiEvent(tick + duration, "note_off", 0, pitch, 0))
    events.sort(key=lambda e: e.tick)
    events.append(MidiEvent(max(e.tick for e in events), "end_of_track"))
    return MidiDocument(format=1, ppqn=ppqn, tracks=[MidiTrack(0, events)])


class TestLoadSeedMelody:
    def test_monophonic_passthrough(self):
        notes = [(i * 480, 60 + i, 90, 480) for i in range(8)]
        motif = load_seed_melody(document_with_notes(notes))
        assert [p for p, _ in motif] == [60, 61, 62, 63, 64, 65, 66, 67]
        assert all(d == 480 for _, d in motif)

    def test_chordal_track_keeps_top_note(self):
        notes = []
        for i in range(3):
            for offset in (0, 4, 7):  # triad stacks
                notes.append((i * 480, 60 + offset, 90, 480))
        motif = load_seed_melody(document_with_notes(notes))
        assert [p for p, _ in motif] == [67, 67, 67]

    def test_off_grid_notes_snap_to_sixteenths(self):
        notes = [(7, 60, 90, 233), (480 + 50, 62, 90, 470)]
        motif = load_seed_melody(document_with_notes(notes))
        assert all(d % SIXTEENTH_TICKS == 0 for _, d in motif)

    def test_rescales_foreign_ppqn(self):
        notes = [(0, 60, 90, 240), (240, 62, 90, 240)]  # quarters at ppqn 240
        motif = load_seed_melody(document_with_notes(notes, ppqn=240))
        assert motif == [(60, 480), (62, 480)]

    def test_caps_at_two_default_phrases(self):
        notes = [(i * 960, 60, 90, 960) for i in range(40)]
        motif = load_seed_melody(document_with_notes(notes))
        assert sum(d for _, d in motif) <= 2 * 4 * 4 * PPQN

    def test_empty_document(self):
        doc = MidiDocument(format=1, ppqn=480, tracks=[MidiTrack(0, [])])
        with pytest.raises(EmptyMelodyError):
            load_seed_melody(doc)


class TestActiveLayerCount:
    def test_low_stay_holds_midpoint(self):
        mood = make_mood()
        spec = section(energy=EnergyLabel.LOW, slope="stay", phrases=2)
        counts = [active_layer_count(spec, mood, b) for b in range(8)]
        assert counts == [2] * 8  # midpoint of (1, 3)

    def test_gradual_up_steps_per_phrase(self):
        mood = make_mood()  # low (1,3) starts at 2; up may borrow medium's max
        spec = section(energy=EnergyLabel.LOW, slope="gradual", direction="up", phrases=4)
        counts = [active_layer_count(spec, mood, b) for b in range(16)]
        assert counts == [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4]

    def test_steep_down_clamps_at_one(self):
        mood = make_mood(layers_per_energy={"low": (1, 5), "medium": (2, 5), "high": (3, 5)})
        spec = section(energy=EnergyLabel.LOW, slope="steep", direction="down", phrases=1)
        counts = [active_layer_count(spec, mood, b) for b in range(4)]
        assert counts == [3, 2, 1, 1]

    def test_never_exceeds_total_layers(self):
        mood = make_mood()
        spec = section(energy=EnergyLabel.HIGH, slope="steep", direction="up", phrases=4)
        for b in range(16):
            assert 1 <= active_layer_count(spec, mood, b) <= mood.total_layers

    def test_up_is_monotone_nondecreasing(self):
        mood = make_mood()
        for slope in ("stay", "gradual", "steep"):
            spec = section(energy=EnergyLabel.MEDIUM, slope=slope, direction="up", phrases=3)
            counts = [active_layer_count(spec, mood, b) for b in range(12)]
            assert counts == sorted(counts)

    def test_down_is_monotone_nonincreasing(self):
        mood = make_mood()
        for slope in ("gradual", "steep"):
            spec = section(energy=EnergyLabel.MEDIUM, slope=slope, direction="down", phrases=3)
            counts = [active_layer_count(spec, mood, b) for b in range(12)]
            assert counts == sorted(counts, reverse=True)


class TestComposeSection:
    def compose(self, spec=None, mood=None, seed=11, motif=None, cadence=False):
        mood = mood or load_mood("inspire")
        spec = spec or section()
        return mood, compose_section(spec, cadence, mood, "semi-complex", motif, seed)

    def test_deterministic(self):
        _, a = self.compose(seed=5)
        _, b = self.compose(seed=5)
        assert a == b

    def test_at_least_one_layer_sounds(self):
        _, result = self.compose()
        assert any(result.events[label] for label in result.events)

    def test_events_inside_section_span(self):
        _, result = self.compose(spec=section(phrases=3, signature=(6, 8)))
        for events in result.events.values():
            for ev in events:
                assert 0 <= ev.start_tick
                assert ev.start_tick + ev.duration_ticks <= result.length_ticks

    def test_pitches_valid_and_in_scale(self):
        mood, result = self.compose(spec=section(phrases=2, energy=EnergyLabel.HIGH))
        pcs = set(mood.scale.pitch_classes)
        registers = {l.label: l.register for l in mood.instrument_layers}
        for label, events in result.events.items():
            for ev in events:
                assert 0 <= ev.pitch <= 127
                lo, hi = registers[label]
                assert lo <= ev.pitch <= hi
                if label != "percussion":
                    assert ev.pitch % 12 in pcs

    def test_velocities_follow_density_class(self):
        mood, result = self.compose()
        density = {l.label: l.rhythm_density for l in mood.instrument_layers}
        expected = {"sparse": 70, "medium": 82, "dense": 94}
        for label, events in result.events.items():
            for ev in events:
                assert ev.velocity == expected[density[label]]

    def test_motif_shapes_melody(self):
        spec = section(energy=EnergyLabel.HIGH)  # enough layers for melody
        motif = [(72, 480), (74, 480), (76, 960)]
        _, with_motif = self.compose(spec=spec, motif=motif, seed=3)
        _, without = self.compose(spec=spec, motif=None, seed=3)
        assert with_motif.events["melody"]
        assert with_motif.events["melody"] != without.events["melody"]

    def test_layer_activation_respects_counts(self):
        mood = load_mood("inspire")
        spec = section(energy=EnergyLabel.LOW, slope="gradual", direction="up", phrases=4)
        result = compose_section(spec, False, mood, "simple", None, 9)
        ranked = [l.label for l in mood.layers_by_rank()]
        bar_ticks = result.length_ticks // (spec.phrases * mood.phrase_length_bars)
        for position, label in enumerate(ranked):
            for ev in result.events[label]:
                bar = ev.start_tick // bar_ticks
                count = active_layer_count(spec, mood, bar)
                assert position < count


def test_pc_in_register_matches_a_scan_of_the_register():
    for lo in range(128):
        for hi in range(lo, 128):
            center = (lo + hi) // 2
            for pc in range(12):
                candidates = [p for p in range(lo, hi + 1) if p % 12 == pc]
                expected = (min(candidates, key=lambda p: (abs(p - center), p))
                            if candidates else center)
                assert _pc_in_register(pc, (lo, hi)) == expected, (pc, lo, hi)


def test_no_note_sounds_in_a_bar_its_layer_is_off():
    rng = random.Random(2024)
    for _ in range(30):
        plan = random_valid_plan(rng)
        mood = load_mood(plan.mood)
        score = compose_plan(plan, mood)
        ranked = [layer.label for layer in mood.layers_by_rank()]
        for spec, placed in zip(plan.sections, score.sections):
            n, d = spec.time_signature
            bar = n * PPQN * 4 // d
            bars = spec.phrases * mood.phrase_length_bars
            active = [active_layer_count(spec, mood, b) for b in range(bars)]
            for position, label in enumerate(ranked):
                for ev in placed.events[label]:
                    end = ev.start_tick + ev.duration_ticks
                    assert ev.start_tick < end <= bars * bar
                    for b in range(ev.start_tick // bar, (end - 1) // bar + 1):
                        assert position < active[b], (label, ev, b)


SHIPPED_MOODS = sorted(entry.name[:-len(".json")]
                       for entry in resources.files("vidscore").joinpath("data/moods").iterdir()
                       if entry.name.endswith(".json"))


@pytest.mark.parametrize("name", SHIPPED_MOODS)
def test_each_layer_plays_over_one_run_of_bars(name):
    """compose_section keeps one span of bars per layer, from the first bar
    the layer plays to its last; that is only right if no layer pauses and
    comes back within a section."""
    mood = load_mood(name)
    for energy in EnergyLabel:
        for direction in ("up", "down"):
            for slope in ("stay", "gradual", "steep"):
                for phrases in (1, 2, 3):
                    spec = section(energy=energy, direction=direction, slope=slope,
                                   phrases=phrases, phrase_bars=mood.phrase_length_bars)
                    bars = phrases * mood.phrase_length_bars
                    counts = [active_layer_count(spec, mood, b) for b in range(bars)]
                    for position in range(mood.total_layers):
                        active = [b for b in range(bars) if position < counts[b]]
                        if active:
                            assert active == list(range(active[0], active[-1] + 1)), \
                                (energy, direction, slope, phrases, position, counts)


def test_a_layer_that_never_plays_keeps_its_track():
    mood = load_mood("drive")  # low energy holds 2 of its 6 layers
    spec = section(energy=EnergyLabel.LOW, slope="stay", phrases=1,
                   phrase_bars=mood.phrase_length_bars)
    plan = CompositionPlan(total_duration_s=spec.duration_s, mood="drive",
                           complexity="simple", rng_seed=9, sections=(spec,))
    score = compose_plan(plan, mood)
    ranked = [layer.label for layer in mood.layers_by_rank()]
    assert score.layer_labels == ranked
    assert [label for label in ranked if not score.sections[0].events[label]] == ranked[2:]
    doc = read_smf(write_smf(score, InstrumentMap.default()))
    assert len(doc.tracks) == 1 + mood.total_layers


class TestAssembleScore:
    def two_section_plan(self):
        sections = (section(sid=0, phrases=1), section(sid=1, phrases=1))
        # each section: 1 phrase * 4 bars * 4 quarters at 120 bpm = 8 s
        return CompositionPlan(
            total_duration_s=16.0,
            mood="inspire",
            complexity="simple",
            rng_seed=4,
            sections=sections,
        )

    def test_sections_abut_and_tempo_map_lands_on_starts(self):
        plan = self.two_section_plan()
        mood = load_mood("inspire")
        score = compose_plan(plan, mood)
        assert [s.start_tick for s in score.sections] == [0, 7680]
        assert score.tempo_map == ((0, 120), (7680, 120))
        assert score.time_signature_map[0] == (0, (4, 4))
        assert score.total_ticks == 15360
        assert score_duration_s(score) == pytest.approx(16.0)

    def test_single_section_duration(self):
        rng = random.Random(77)
        plan = random_valid_plan(rng)
        mood = load_mood(plan.mood)
        score = compose_plan(plan, mood)
        assert score_duration_s(score) == pytest.approx(plan.total_duration_s, abs=1e-6)

    def test_trailing_silence_absorbs_residual(self):
        plan = self.two_section_plan()
        padded = CompositionPlan(
            total_duration_s=plan.total_duration_s + 0.5,
            mood=plan.mood,
            complexity=plan.complexity,
            rng_seed=plan.rng_seed,
            sections=plan.sections,
        )
        mood = load_mood("inspire")
        score = compose_plan(padded, mood)
        one_tick_s = 60.0 / (120 * PPQN)
        assert abs(score_duration_s(score) - padded.total_duration_s) <= one_tick_s
        # the music itself did not move, only the final section grew
        base = compose_plan(plan, mood)
        assert score.sections[-1].events == base.sections[-1].events

    def test_events_offset_by_section_start(self):
        plan = self.two_section_plan()
        mood = load_mood("inspire")
        score = compose_plan(plan, mood)
        second = score.sections[1]
        assert all(
            second.start_tick + ev.start_tick >= second.start_tick
            for events in second.events.values()
            for ev in events
        )

    def test_whole_score_deterministic_over_random_plans(self):
        rng = random.Random(123)
        for _ in range(10):
            plan = random_valid_plan(rng)
            mood = load_mood(plan.mood)
            assert compose_plan(plan, mood) == compose_plan(plan, mood)

    def test_editing_one_section_leaves_others_unchanged(self):
        plan = self.two_section_plan()
        mood = load_mood("inspire")
        base = compose_plan(plan, mood)
        tweaked_sections = (
            plan.sections[0],
            section(sid=1, phrases=1, direction="down", slope="gradual",
                    energy=EnergyLabel.HIGH),
        )
        tweaked = CompositionPlan(
            total_duration_s=plan.total_duration_s,
            mood=plan.mood,
            complexity=plan.complexity,
            rng_seed=plan.rng_seed,
            sections=tweaked_sections,
        )
        redone = compose_plan(tweaked, mood)
        assert redone.sections[0].events == base.sections[0].events
