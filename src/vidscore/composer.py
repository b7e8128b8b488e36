"""Procedural realization of a plan as multi-layer note events.

Each section is rendered independently and deterministically. A section's
chord progression is drawn from the mood's progressions for the plan's
complexity level and cycled bar by bar. The energy label fixes the starting
number of active instrument layers (the floor of the midpoint of the mood's
range for that label); direction and slope then add or remove one layer per
phrase (gradual) or per bar (steep), clamped to the energy range extended by
the adjacent range in the direction of travel, and always to [1, layer count].

Layers activate in activation_rank order. What a layer plays is decided by
its label (bass, pad, chords, arpeggio, melody, percussion and friends) and
its rhythm_density class, which also fixes the velocity. The melody layer
develops the seed motif, when one is given, by stepping it through the mood
scale with a per-phrase transposition; without a motif it walks the scale.

Randomness comes exclusively from streams keyed by (seed, section_id,
activation_rank), so editing one section of a plan never changes the notes
of any other section.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .energy import EnergyLabel
from .errors import EmptyMelodyError, InconsistentPlanError
from .moods import LayerDef, MoodConfig, Scale
from .planner import CompositionPlan, SectionSpec
from .rng import SeededRng

PPQN = 480
SIXTEENTH_TICKS = PPQN // 4

# one rng stream per (section, layer); rank 0 is the section's own stream
_STREAM_SPAN = 1000

VELOCITY_BY_DENSITY = {"sparse": 70, "medium": 82, "dense": 94}

# GM percussion keys; the percussion layer is channel-mapped, not pitched
KICK, SNARE, CLOSED_HAT, OPEN_HAT, RIDE = 36, 38, 42, 46, 51
PERCUSSION_LABEL = "percussion"

Motif = List[Tuple[int, int]]  # (pitch, duration_ticks) at PPQN resolution


@dataclass(frozen=True)
class NoteEvent:
    start_tick: int
    duration_ticks: int
    pitch: int
    velocity: int
    layer_label: str


@dataclass(frozen=True)
class SectionScore:
    section_id: int
    start_tick: int
    length_ticks: int
    events: Dict[str, List[NoteEvent]]


@dataclass(frozen=True)
class Score:
    sections: Tuple[SectionScore, ...]
    tempo_map: Tuple[Tuple[int, int], ...]  # (tick, bpm), one per section start
    time_signature_map: Tuple[Tuple[int, Tuple[int, int]], ...]
    mood: str
    rng_seed: int
    ppqn: int = PPQN

    @property
    def total_ticks(self) -> int:
        if not self.sections:
            return 0
        last = self.sections[-1]
        return last.start_tick + last.length_ticks

    @property
    def layer_labels(self) -> List[str]:
        labels: List[str] = []
        for section in self.sections:
            for label in section.events:
                if label not in labels:
                    labels.append(label)
        return labels

    def duration_s(self) -> float:
        """Integrate the tempo map over the full tick span."""
        total = 0.0
        for i, (tick, bpm) in enumerate(self.tempo_map):
            end = (
                self.tempo_map[i + 1][0]
                if i + 1 < len(self.tempo_map)
                else self.total_ticks
            )
            total += (end - tick) * 60.0 / (bpm * self.ppqn)
        return total


def beat_ticks(denominator: int) -> int:
    return PPQN * 4 // denominator


# -- seed melody ----------------------------------------------------------------

def load_seed_melody(document) -> Motif:
    """Extract a motif from the first track of a MIDI document with notes.

    Overlapping notes keep the highest pitch, starts and ends snap to the
    sixteenth grid, and the result is capped at two default phrases (eight
    bars of 4/4).
    """
    track_notes = None
    for track in document.tracks:
        notes = document.track_notes(track)
        if notes:
            track_notes = notes
            break
    if not track_notes:
        raise EmptyMelodyError("no note events in the melody file")

    scale = PPQN / document.ppqn
    quantized = []
    for note in track_notes:
        start = _snap(int(round(note.tick * scale)))
        end = _snap(int(round((note.tick + note.duration) * scale)))
        duration = max(end - start, SIXTEENTH_TICKS)
        quantized.append((start, note.pitch, duration))
    quantized.sort(key=lambda item: (item[0], -item[1]))

    mono: List[Tuple[int, int, int]] = []  # (start, pitch, duration)
    for start, pitch, duration in quantized:
        if mono and start < mono[-1][0] + mono[-1][2]:
            prev_start, prev_pitch, prev_dur = mono[-1]
            if start == prev_start or pitch <= prev_pitch:
                continue  # lower (or stacked) note loses
            clipped = start - prev_start
            if clipped > 0:
                mono[-1] = (prev_start, prev_pitch, clipped)
            else:
                mono.pop()
        mono.append((start, pitch, duration))

    cap = 2 * 4 * 4 * PPQN  # two phrases of four 4/4 bars
    motif: Motif = []
    elapsed = 0
    for start, pitch, duration in mono:
        if elapsed >= cap:
            break
        duration = min(duration, cap - elapsed)
        motif.append((pitch, duration))
        elapsed += duration
    return motif


def _snap(tick: int) -> int:
    return int(round(tick / SIXTEENTH_TICKS)) * SIXTEENTH_TICKS


# -- layer arrangement -----------------------------------------------------------

_ENERGY_ORDER = (EnergyLabel.LOW, EnergyLabel.MEDIUM, EnergyLabel.HIGH)


def active_layer_count(
    section: SectionSpec, mood: MoodConfig, bar_index: int
) -> int:
    lo, hi = mood.layers_per_energy[section.energy.value]
    start = (lo + hi) // 2

    if section.slope == "stay":
        steps = 0
    elif section.slope == "gradual":
        steps = bar_index // mood.phrase_length_bars
    else:  # steep
        steps = bar_index
    sign = 1 if section.direction == "up" else -1
    count = start + sign * steps

    allowed_lo, allowed_hi = lo, hi
    idx = _ENERGY_ORDER.index(section.energy)
    if section.direction == "up" and idx + 1 < len(_ENERGY_ORDER):
        nxt = mood.layers_per_energy[_ENERGY_ORDER[idx + 1].value]
        allowed_hi = max(allowed_hi, nxt[1])
    if section.direction == "down" and idx > 0:
        prev = mood.layers_per_energy[_ENERGY_ORDER[idx - 1].value]
        allowed_lo = min(allowed_lo, prev[0])

    count = max(count, max(1, allowed_lo))
    count = min(count, min(mood.total_layers, allowed_hi))
    return count


# -- per-layer note generation ----------------------------------------------------

def _scale_members(scale: Scale, lo: int, hi: int) -> List[int]:
    pcs = set(scale.pitch_classes)
    return [p for p in range(lo, hi + 1) if p % 12 in pcs]


def _nearest_index(members: Sequence[int], pitch: int) -> int:
    best = 0
    for i, p in enumerate(members):
        if abs(p - pitch) < abs(members[best] - pitch):
            best = i
    return best


def _pc_in_register(pc: int, register: Tuple[int, int]) -> int:
    lo, hi = register
    center = (lo + hi) // 2
    candidates = [p for p in range(lo, hi + 1) if p % 12 == pc]
    if not candidates:
        return center
    return min(candidates, key=lambda p: (abs(p - center), p))


class _SectionContext:
    def __init__(self, section: SectionSpec, mood: MoodConfig, chords, counts):
        self.section = section
        self.mood = mood
        self.chords = chords  # per-bar chord degree
        self.counts = counts  # per-bar active layer count
        n, d = section.time_signature
        self.beats_per_bar = n
        self.beat = beat_ticks(d)
        self.bar = n * self.beat
        self.bars = section.phrases * mood.phrase_length_bars
        self.length = self.bars * self.bar
        self.phrase_bars = mood.phrase_length_bars


def _grid_steps(density: str, beat: int) -> int:
    if density == "dense":
        return beat // 2
    if density == "medium":
        return beat
    return 0  # sparse: one event per bar


def _bass_events(ctx, layer, rng, phrase_draws) -> List[NoteEvent]:
    velocity = VELOCITY_BY_DENSITY[layer.rhythm_density]
    events = []
    for bar in range(ctx.bars):
        degree = ctx.chords[bar]
        root = _pc_in_register(ctx.mood.scale.degree_pc(degree), layer.register)
        fifth = _pc_in_register(ctx.mood.scale.degree_pc(degree + 4), layer.register)
        base = bar * ctx.bar
        step = _grid_steps(layer.rhythm_density, ctx.beat)
        if step == 0:
            events.append(NoteEvent(base, ctx.bar, root, velocity, layer.label))
            continue
        tick = base
        i = 0
        while tick < base + ctx.bar:
            pitch = root if i % 4 != 3 else fifth
            events.append(
                NoteEvent(tick, min(step, base + ctx.bar - tick), pitch, velocity, layer.label)
            )
            tick += step
            i += 1
    return events


def _chord_pitches(ctx, degree: int, register, inversion: int) -> List[int]:
    pcs = ctx.mood.scale.triad_pcs(degree)
    pitches = sorted(_pc_in_register(pc, register) for pc in pcs)
    for _ in range(inversion % 3):
        lowest = pitches.pop(0)
        raised = lowest + 12
        if raised <= register[1]:
            pitches.append(raised)
        else:
            pitches.append(lowest)
    return sorted(set(pitches))


def _chordal_events(ctx, layer, rng, phrase_draws, sustained: bool) -> List[NoteEvent]:
    velocity = VELOCITY_BY_DENSITY[layer.rhythm_density]
    events = []
    for bar in range(ctx.bars):
        inversion = phrase_draws[bar // ctx.phrase_bars]
        pitches = _chord_pitches(ctx, ctx.chords[bar], layer.register, inversion)
        base = bar * ctx.bar
        if layer.rhythm_density == "sparse" or sustained:
            spans = [(base, ctx.bar)]
        elif layer.rhythm_density == "medium":
            half = (ctx.beats_per_bar // 2) * ctx.beat
            spans = [(base, half or ctx.bar)]
            if half and half < ctx.bar:
                spans.append((base + half, ctx.bar - half))
        else:
            spans = [(base + b * ctx.beat, ctx.beat) for b in range(ctx.beats_per_bar)]
        for start, dur in spans:
            for pitch in pitches:
                events.append(NoteEvent(start, dur, pitch, velocity, layer.label))
    return events


def _arpeggio_events(ctx, layer, rng, phrase_draws) -> List[NoteEvent]:
    velocity = VELOCITY_BY_DENSITY[layer.rhythm_density]
    step = _grid_steps(layer.rhythm_density, ctx.beat) or ctx.beat
    events = []
    for bar in range(ctx.bars):
        upward = phrase_draws[bar // ctx.phrase_bars]
        pitches = _chord_pitches(ctx, ctx.chords[bar], layer.register, 0)
        if not upward:
            pitches = pitches[::-1]
        base = bar * ctx.bar
        tick = base
        i = 0
        while tick < base + ctx.bar:
            pitch = pitches[i % len(pitches)]
            events.append(
                NoteEvent(tick, min(step, base + ctx.bar - tick), pitch, velocity, layer.label)
            )
            tick += step
            i += 1
    return events


def _melody_events(ctx, layer, rng, motif: Motif) -> List[NoteEvent]:
    velocity = VELOCITY_BY_DENSITY[layer.rhythm_density]
    members = _scale_members(ctx.mood.scale, layer.register[0], layer.register[1])
    if not members:
        return []
    events = []
    phrase_ticks = ctx.phrase_bars * ctx.bar
    for phrase in range(ctx.section.phrases):
        start = phrase * phrase_ticks
        if motif:
            shift = rng.randint(-2, 2)
            tick = start
            for pitch, duration in motif:
                if tick >= start + phrase_ticks:
                    break
                index = _nearest_index(members, pitch)
                target = members[max(0, min(len(members) - 1, index + shift))]
                duration = min(duration, start + phrase_ticks - tick)
                events.append(NoteEvent(tick, duration, target, velocity, layer.label))
                tick += duration
        else:
            index = _nearest_index(members, (layer.register[0] + layer.register[1]) // 2)
            step = ctx.beat if layer.rhythm_density != "dense" else ctx.beat // 2
            tick = start
            while tick < start + phrase_ticks:
                events.append(
                    NoteEvent(
                        tick,
                        min(step, start + phrase_ticks - tick),
                        members[index],
                        velocity,
                        layer.label,
                    )
                )
                index += rng.choice([-2, -1, -1, 0, 1, 1, 2])
                index = max(0, min(len(members) - 1, index))
                tick += step
    return events


def _percussion_events(ctx, layer, rng, phrase_draws) -> List[NoteEvent]:
    velocity = VELOCITY_BY_DENSITY[layer.rhythm_density]
    events = []
    half = ctx.beat // 2
    for bar in range(ctx.bars):
        base = bar * ctx.bar
        hits: List[Tuple[int, int]] = [(0, KICK)]
        if ctx.beats_per_bar >= 2:
            hits.append(((ctx.beats_per_bar // 2) * ctx.beat, SNARE))
        if layer.rhythm_density in ("medium", "dense"):
            mid_kick = (ctx.beats_per_bar // 2 + 1) * ctx.beat
            if ctx.beats_per_bar >= 4:
                hits.append((mid_kick, KICK))
            for b in range(ctx.beats_per_bar):
                hits.append((b * ctx.beat, CLOSED_HAT))
        if layer.rhythm_density == "dense":
            for b in range(ctx.beats_per_bar):
                hits.append((b * ctx.beat + half, CLOSED_HAT))
            hits.append((ctx.bar - half, OPEN_HAT))
        for offset, pitch in sorted(set(hits)):
            if offset >= ctx.bar:
                continue
            events.append(
                NoteEvent(base + offset, min(half or ctx.beat, ctx.bar - offset),
                          pitch, velocity, layer.label)
            )
    return events


_GENERIC_CHORDAL = {"pad": True, "strings": True, "chords": False, "bells": False}


def _layer_events(ctx, layer: LayerDef, rng, motif: Motif, phrase_draws) -> List[NoteEvent]:
    if layer.label == PERCUSSION_LABEL:
        return _percussion_events(ctx, layer, rng, phrase_draws)
    if layer.label == "bass":
        return _bass_events(ctx, layer, rng, phrase_draws)
    if layer.label in ("arpeggio", "pluck"):
        return _arpeggio_events(ctx, layer, rng, phrase_draws)
    if layer.label in ("melody", "lead"):
        return _melody_events(ctx, layer, rng, motif)
    sustained = _GENERIC_CHORDAL.get(layer.label, False)
    return _chordal_events(ctx, layer, rng, phrase_draws, sustained)


def _gate_to_active_bars(
    events: List[NoteEvent], position: int, counts: List[int], bar: int, length: int
) -> List[NoteEvent]:
    """Keep events whose bar has this layer active; clip notes that would
    ring into the layer's first inactive bar."""
    bars = len(counts)
    limit_after = [length] * bars
    for b in range(bars - 1, -1, -1):
        if position >= counts[b]:
            limit_after[b] = b * bar
        elif b + 1 < bars:
            limit_after[b] = limit_after[b + 1]
    out = []
    for ev in events:
        b = ev.start_tick // bar
        if b >= bars or position >= counts[b]:
            continue
        end = min(ev.start_tick + ev.duration_ticks, limit_after[b], length)
        if end > ev.start_tick:
            out.append(replace(ev, duration_ticks=end - ev.start_tick))
    return out


def compose_section(
    section: SectionSpec,
    role: str,
    mood: MoodConfig,
    complexity: str,
    motif: Optional[Motif],
    seed: int,
) -> SectionScore:
    """Render one section; a pure function of its arguments."""
    section_rng = SeededRng(seed, section.section_id * _STREAM_SPAN)
    progression = section_rng.choice(mood.progressions[complexity])

    bars = section.phrases * mood.phrase_length_bars
    chords = [progression[b % len(progression)] for b in range(bars)]
    if role == "coda":
        chords[-1] = 1  # cadence home on the final bar
    counts = [active_layer_count(section, mood, b) for b in range(bars)]
    ctx = _SectionContext(section, mood, chords, counts)

    events: Dict[str, List[NoteEvent]] = {}
    for position, layer in enumerate(mood.layers_by_rank()):
        rng = SeededRng(seed, section.section_id * _STREAM_SPAN + layer.activation_rank)
        phrase_draws = [rng.randrange(3) for _ in range(section.phrases)]
        if layer.label in ("arpeggio", "pluck"):
            phrase_draws = [draw % 2 == 0 for draw in phrase_draws]
        raw = _layer_events(ctx, layer, rng, motif or [], phrase_draws)
        events[layer.label] = _gate_to_active_bars(
            raw, position, counts, ctx.bar, ctx.length
        )
    return SectionScore(
        section_id=section.section_id,
        start_tick=0,
        length_ticks=ctx.length,
        events=events,
    )


def assemble_score(
    plan: CompositionPlan, section_scores: Sequence[SectionScore], mood: MoodConfig
) -> Score:
    """Place sections end to end and emit the tempo/meter maps.

    Any positive gap between the realized music and the plan's total duration
    becomes trailing silence in the final section.
    """
    if len(section_scores) != len(plan.sections):
        raise InconsistentPlanError(
            f"plan has {len(plan.sections)} sections, got {len(section_scores)} scores"
        )
    for spec, score in zip(plan.sections, section_scores):
        if spec.section_id != score.section_id:
            raise InconsistentPlanError(
                f"section id mismatch: plan {spec.section_id}, score {score.section_id}"
            )

    placed: List[SectionScore] = []
    tempo_map: List[Tuple[int, int]] = []
    ts_map: List[Tuple[int, Tuple[int, int]]] = []
    tick = 0
    realized_s = 0.0
    for spec, score in zip(plan.sections, section_scores):
        moved = SectionScore(
            section_id=score.section_id,
            start_tick=tick,
            length_ticks=score.length_ticks,
            events={
                label: [replace(ev, start_tick=ev.start_tick + tick) for ev in evs]
                for label, evs in score.events.items()
            },
        )
        tempo_map.append((tick, spec.tempo))
        ts_map.append((tick, spec.time_signature))
        placed.append(moved)
        tick += score.length_ticks
        realized_s += score.length_ticks * 60.0 / (spec.tempo * PPQN)

    residual = plan.total_duration_s - realized_s
    if placed and residual > 0:
        final_tempo = plan.sections[-1].tempo
        pad = int(round(residual * final_tempo * PPQN / 60.0))
        if pad > 0:
            last = placed[-1]
            placed[-1] = SectionScore(
                section_id=last.section_id,
                start_tick=last.start_tick,
                length_ticks=last.length_ticks + pad,
                events=last.events,
            )

    return Score(
        sections=tuple(placed),
        tempo_map=tuple(tempo_map),
        time_signature_map=tuple(ts_map),
        mood=plan.mood,
        rng_seed=plan.rng_seed,
    )


def compose_plan(
    plan: CompositionPlan, mood: MoodConfig, motif: Optional[Motif] = None
) -> Score:
    """Compose every section of a plan and assemble the full score."""
    scores = [
        compose_section(section, role, mood, plan.complexity, motif, plan.rng_seed)
        for section, role in zip(plan.sections, plan.roles)
    ]
    return assemble_score(plan, scores, mood)


def score_debug_dump(score: Score) -> str:
    """Per-section JSON event dump for inspection."""
    doc = {
        "mood": score.mood,
        "seed": score.rng_seed,
        "ppqn": score.ppqn,
        "tempo_map": [list(entry) for entry in score.tempo_map],
        "sections": [
            {
                "section_id": section.section_id,
                "start_tick": section.start_tick,
                "length_ticks": section.length_ticks,
                "events": {
                    label: [
                        [ev.start_tick, ev.duration_ticks, ev.pitch, ev.velocity]
                        for ev in events
                    ]
                    for label, events in section.events.items()
                },
            }
            for section in score.sections
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
