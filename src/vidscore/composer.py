"""Procedural realization of a plan as multi-layer note events.

Each section is rendered independently and deterministically. A section's
chord progression is drawn from the mood's progressions for the plan's
complexity level and cycled bar by bar. The energy label fixes the starting
number of active instrument layers (the floor of the midpoint of the mood's
range for that label); direction and slope then add or remove one layer per
phrase (gradual) or per bar (steep), clamped to the energy range extended by
the adjacent range in the direction of travel, and always to [1, layer count].
The count thus moves one way through a section, so each layer plays over one
run of consecutive bars (or none); a note that would ring past the end of its
layer's run is clipped there.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .energy import EnergyLabel
from .errors import EmptyMelodyError
from .moods import MAX_ACTIVATION_RANK, MoodConfig, Scale
from .planner import CompositionPlan, SectionSpec
from .rng import SeededRng

PPQN = 480
SIXTEENTH_TICKS = PPQN // 4

# one rng stream per (section, layer); rank 0 is the section's own stream
_STREAM_SPAN = MAX_ACTIVATION_RANK + 1

VELOCITY_BY_DENSITY = {"sparse": 70, "medium": 82, "dense": 94}

# GM percussion keys; the percussion layer is channel-mapped, not pitched
KICK, SNARE, CLOSED_HAT, OPEN_HAT = 36, 38, 42, 46
PERCUSSION_LABEL = "percussion"

Motif = List[Tuple[int, int]]  # (pitch, duration_ticks) at PPQN resolution
Note = Tuple[int, int, int]  # (tick, duration_ticks, pitch), as a generator plays it


class NoteEvent(NamedTuple):
    start_tick: int
    duration_ticks: int
    pitch: int
    velocity: int


@dataclass(frozen=True)
class SectionScore:
    section_id: int
    start_tick: int
    length_ticks: int
    events: Dict[str, List[NoteEvent]]  # ticks relative to start_tick


@dataclass(frozen=True)
class Score:
    sections: Tuple[SectionScore, ...]
    tempo_map: Tuple[Tuple[int, int], ...]  # (tick, bpm), one per section start
    time_signature_map: Tuple[Tuple[int, Tuple[int, int]], ...]
    mood: str
    rng_seed: int

    @property
    def total_ticks(self) -> int:
        if not self.sections:
            return 0
        last = self.sections[-1]
        return last.start_tick + last.length_ticks

    @property
    def layer_labels(self) -> List[str]:
        """Every layer's label, in order of first appearance."""
        return list(dict.fromkeys(label for section in self.sections for label in section.events))


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
            # sorted by start, and an equal start was skipped: the clip is positive
            mono[-1] = (prev_start, prev_pitch, start - prev_start)
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
    levels = list(EnergyLabel)  # low to high
    idx = levels.index(section.energy)
    if section.direction == "up" and idx + 1 < len(levels):
        nxt = mood.layers_per_energy[levels[idx + 1].value]
        allowed_hi = max(allowed_hi, nxt[1])
    if section.direction == "down" and idx > 0:
        prev = mood.layers_per_energy[levels[idx - 1].value]
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
    # pc in each octave; moods._validate gives every register 12 pitches or more
    candidates = range(lo + (pc - lo) % 12, hi + 1, 12)
    return min(candidates, key=lambda p: (abs(p - center), p))


class _SectionContext:
    def __init__(self, section: SectionSpec, mood: MoodConfig, chords, motif: Motif):
        self.section = section
        self.mood = mood
        self.motif = motif
        self.chords = chords  # per-bar chord degree
        n, d = section.time_signature
        self.beats_per_bar = n
        self.beat = PPQN * 4 // d
        self.bar = n * self.beat
        self.bars = section.phrases * mood.phrase_length_bars
        self.length = self.bars * self.bar
        self.phrase_bars = mood.phrase_length_bars


def _grid(start: int, end: int, step: int):
    """(index, tick, duration) every ``step`` ticks from start; the last note
    is clipped at end."""
    for i, tick in enumerate(range(start, end, step)):
        yield i, tick, min(step, end - tick)


def _grid_steps(density: str, beat: int) -> int:
    if density == "dense":
        return beat // 2
    if density == "medium":
        return beat
    return 0  # sparse: one event per bar


# Generators share the signature (ctx, layer, rng, phrase_draws): rng is the
# layer's stream, and phrase_draws the one draw in [0, 3) per phrase taken
# from it first. Each plays every bar and returns Notes; compose_section keeps
# the layer's active bars and sets the velocity.

def _bass_events(ctx, layer, rng, phrase_draws) -> List[Note]:
    step = _grid_steps(layer.rhythm_density, ctx.beat) or ctx.bar  # sparse: whole bar
    events = []
    for bar in range(ctx.bars):
        degree = ctx.chords[bar]
        root = _pc_in_register(ctx.mood.scale.degree_pc(degree), layer.register)
        fifth = _pc_in_register(ctx.mood.scale.degree_pc(degree + 4), layer.register)
        base = bar * ctx.bar
        events += [(tick, duration, fifth if i % 4 == 3 else root)
                   for i, tick, duration in _grid(base, base + ctx.bar, step)]
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


def _chordal_events(ctx, layer, rng, phrase_draws) -> List[Note]:
    """Block chords; pad and strings hold each chord for the whole bar."""
    events = []
    for bar in range(ctx.bars):
        inversion = phrase_draws[bar // ctx.phrase_bars]
        pitches = _chord_pitches(ctx, ctx.chords[bar], layer.register, inversion)
        base = bar * ctx.bar
        if layer.rhythm_density == "sparse" or layer.label in ("pad", "strings"):
            spans = [(base, ctx.bar)]
        elif layer.rhythm_density == "medium":
            half = (ctx.beats_per_bar // 2) * ctx.beat
            spans = [(base, half), (base + half, ctx.bar - half)]
        else:
            spans = [(base + b * ctx.beat, ctx.beat) for b in range(ctx.beats_per_bar)]
        for start, dur in spans:
            for pitch in pitches:
                events.append((start, dur, pitch))
    return events


def _arpeggio_events(ctx, layer, rng, phrase_draws) -> List[Note]:
    step = _grid_steps(layer.rhythm_density, ctx.beat) or ctx.beat
    events = []
    for bar in range(ctx.bars):
        pitches = _chord_pitches(ctx, ctx.chords[bar], layer.register, 0)
        if phrase_draws[bar // ctx.phrase_bars] % 2:  # odd draw: downward
            pitches = pitches[::-1]
        base = bar * ctx.bar
        events += [(tick, duration, pitches[i % len(pitches)])
                   for i, tick, duration in _grid(base, base + ctx.bar, step)]
    return events


def _melody_events(ctx, layer, rng, phrase_draws) -> List[Note]:
    members = _scale_members(ctx.mood.scale, layer.register[0], layer.register[1])
    events = []
    phrase_ticks = ctx.phrase_bars * ctx.bar
    for phrase in range(ctx.section.phrases):
        start = phrase * phrase_ticks
        if ctx.motif:
            shift = rng.randint(-2, 2)
            tick = start
            for pitch, duration in ctx.motif:
                if tick >= start + phrase_ticks:
                    break
                index = _nearest_index(members, pitch)
                target = members[max(0, min(len(members) - 1, index + shift))]
                duration = min(duration, start + phrase_ticks - tick)
                events.append((tick, duration, target))
                tick += duration
        else:
            index = _nearest_index(members, (layer.register[0] + layer.register[1]) // 2)
            step = _grid_steps(layer.rhythm_density, ctx.beat) or ctx.beat
            for _, tick, duration in _grid(start, start + phrase_ticks, step):
                events.append((tick, duration, members[index]))
                index += rng.choice([-2, -1, -1, 0, 1, 1, 2])
                index = max(0, min(len(members) - 1, index))
    return events


def _percussion_events(ctx, layer, rng, phrase_draws) -> List[Note]:
    events = []
    half = ctx.beat // 2
    for bar in range(ctx.bars):
        base = bar * ctx.bar
        hits = [(0, KICK), ((ctx.beats_per_bar // 2) * ctx.beat, SNARE)]
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
            events.append((base + offset, min(half, ctx.bar - offset), pitch))
    return events


# label -> generator; every other label plays _chordal_events
_GENERATORS = {
    PERCUSSION_LABEL: _percussion_events,
    "bass": _bass_events,
    "arpeggio": _arpeggio_events,
    "pluck": _arpeggio_events,
    "melody": _melody_events,
    "lead": _melody_events,
}


def compose_section(
    section: SectionSpec,
    cadence: bool,
    mood: MoodConfig,
    complexity: str,
    motif: Optional[Motif],
    seed: int,
) -> SectionScore:
    """Render one section; a pure function of its arguments. With ``cadence``
    the final bar's chord is the tonic. The section's meter must be one that
    ``moods.supported_meter`` accepts: at least two beats to the bar, on a
    beat of a half, quarter or eighth note."""
    section_rng = SeededRng(seed, section.section_id * _STREAM_SPAN)
    progression = section_rng.choice(mood.progressions[complexity])

    bars = section.phrases * mood.phrase_length_bars
    chords = [progression[b % len(progression)] for b in range(bars)]
    if cadence:
        chords[-1] = 1
    counts = [active_layer_count(section, mood, b) for b in range(bars)]
    ctx = _SectionContext(section, mood, chords, motif or [])

    events: Dict[str, List[NoteEvent]] = {}
    for position, layer in enumerate(mood.layers_by_rank()):
        active = [b for b, count in enumerate(counts) if position < count]
        if not active:  # its stream goes undrawn; the label still gets its track
            events[layer.label] = []
            continue
        rng = SeededRng(seed, section.section_id * _STREAM_SPAN + layer.activation_rank)
        # drawn whatever the layer plays: the melody's notes come after these
        phrase_draws = [rng.randrange(3) for _ in range(section.phrases)]
        notes = _GENERATORS.get(layer.label, _chordal_events)(ctx, layer, rng, phrase_draws)
        # one run of active bars; a note ringing past its end is clipped there
        lo, hi = active[0] * ctx.bar, (active[-1] + 1) * ctx.bar
        velocity = VELOCITY_BY_DENSITY[layer.rhythm_density]
        events[layer.label] = [NoteEvent(tick, min(duration, hi - tick), pitch, velocity)
                               for tick, duration, pitch in notes if lo <= tick < hi]
    return SectionScore(section.section_id, 0, ctx.length, events)


def compose_plan(
    plan: CompositionPlan, mood: MoodConfig, motif: Optional[Motif] = None
) -> Score:
    """Compose every section of a plan and place them end to end, with a
    tempo and meter entry at each section start.

    The last of two or more sections ends on the tonic. Any positive gap
    between the realized music and the plan's total duration becomes
    trailing silence in the final section.
    """
    placed: List[SectionScore] = []
    tick = 0
    realized_s = 0.0
    last = len(plan.sections) - 1
    for i, spec in enumerate(plan.sections):
        score = compose_section(spec, 0 < i == last, mood, plan.complexity, motif,
                                plan.rng_seed)
        placed.append(replace(score, start_tick=tick))
        tick += score.length_ticks
        realized_s += score.length_ticks * 60.0 / (spec.tempo * PPQN)

    residual = plan.total_duration_s - realized_s
    if placed and residual > 0:
        final_tempo = plan.sections[-1].tempo
        pad = int(round(residual * final_tempo * PPQN / 60.0))
        if pad > 0:
            placed[-1] = replace(placed[-1], length_ticks=placed[-1].length_ticks + pad)

    starts = [section.start_tick for section in placed]
    return Score(
        sections=tuple(placed),
        tempo_map=tuple(zip(starts, (spec.tempo for spec in plan.sections))),
        time_signature_map=tuple(zip(starts, (spec.time_signature for spec in plan.sections))),
        mood=plan.mood,
        rng_seed=plan.rng_seed,
    )


def score_debug_dump(score: Score) -> str:
    """Per-section JSON event dump for inspection."""
    doc = {
        "mood": score.mood,
        "seed": score.rng_seed,
        "ppqn": PPQN,
        "tempo_map": [list(entry) for entry in score.tempo_map],
        "sections": [
            {
                "section_id": section.section_id,
                "start_tick": section.start_tick,
                "length_ticks": section.length_ticks,
                "events": {
                    label: [
                        [section.start_tick + ev.start_tick, ev.duration_ticks,
                         ev.pitch, ev.velocity]
                        for ev in events
                    ]
                    for label, events in section.events.items()
                },
            }
            for section in score.sections
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
