"""Scene-to-section mapping and the exact-duration solver.

Every scene becomes one musical section. For a target duration the solver
enumerates all (tempo, time signature) pairs the mood allows and keeps those
where a whole number of phrases lands on the target within tolerance:

    phrase_seconds = phrase_bars * n * (4 / d) * 60 / tempo

``harmonize_tempo`` then constrains the candidates: in global mode it draws
the soundtrack's single tempo from the tempos every section can reach, and in
per-scene-energy mode it keeps each scene's energy tempo band. One surviving
candidate per section is then drawn with a deterministic generator keyed by
(seed, section id), so regenerating a plan with one edited section leaves
every other section's draw unchanged.

The plan serializes to an INI document with a [composition] block followed by
one [sectionN] block per section. Section durations may be written as a range
("8 to 12") by hand; the solver resolves them, and emitted plans are always
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .energy import DirectionSlope, EnergyLabel
from .errors import (
    EmptyInputError,
    NoConsistentTempoError,
    PlanParseError,
    UnplannableSectionError,
)
from .ini import iter_ini
from .moods import COMPLEXITIES, MoodConfig, load_mood, supported_meter, supported_tempo
from .rng import SeededRng
from .scenes import Scene

DEFAULT_TOLERANCE_S = 0.010
DEFAULT_SEED = 0xC0FFEE

# reserved stream id for the shared-tempo draw; section streams use their id
_TEMPO_STREAM = 1 << 32

PLANNER_MODES = ("global", "per-scene-energy")


class Fit(NamedTuple):
    tempo: int
    time_signature: Tuple[int, int]
    phrases: int


@dataclass(frozen=True)
class SectionSpec:
    section_id: int
    time_signature: Tuple[int, int]
    tempo: int
    energy: EnergyLabel
    duration_s: float
    phrases: int
    direction: str
    slope: str


@dataclass(frozen=True)
class CompositionPlan:
    total_duration_s: float
    mood: str
    complexity: str
    rng_seed: int
    sections: Tuple[SectionSpec, ...]


def sections_from_scenes(scenes: Sequence[Scene]) -> List[float]:
    """One section per scene: the target durations in seconds, in scene order."""
    if not scenes:
        raise EmptyInputError("no scenes")
    return [scene.duration_s for scene in scenes]


def phrase_seconds(tempo: int, signature: Tuple[int, int], phrase_bars: int) -> float:
    n, d = signature
    return phrase_bars * n * (4.0 / d) * 60.0 / tempo


def _whole_phrases(target_s: float, phrase_s: float, tolerance_s: float) -> Optional[int]:
    """The whole phrase count landing on the target within tolerance, if any."""
    phrases = round(target_s / phrase_s)
    if phrases >= 1 and abs(phrases * phrase_s - target_s) <= tolerance_s:
        return phrases
    return None


def fit_tolerance(frame_period_s: Optional[float] = None) -> float:
    """Half a frame period, capped at 10 ms."""
    if frame_period_s is None:
        return DEFAULT_TOLERANCE_S
    return min(DEFAULT_TOLERANCE_S, frame_period_s / 2.0)


def enumerate_fits(
    duration_s: float, mood: MoodConfig, tolerance_s: float = DEFAULT_TOLERANCE_S
) -> List[Fit]:
    """Every (tempo, signature, phrases) whose duration hits the target."""
    if duration_s <= 0:
        return []
    fits: List[Fit] = []
    lo, hi = mood.tempo_range
    for tempo in range(lo, hi + 1):
        for signature in sorted(mood.time_signatures):
            phrase_s = phrase_seconds(tempo, signature, mood.phrase_length_bars)
            phrases = _whole_phrases(duration_s, phrase_s, tolerance_s)
            if phrases is not None:
                fits.append(Fit(tempo, signature, phrases))
    return fits


def harmonize_tempo(
    per_section_fits: List[List[Fit]],
    rng_seed: int,
    bands: Optional[List[Tuple[int, int]]] = None,
) -> List[List[Fit]]:
    """Trim candidate lists for tempo consistency.

    Without bands (global mode) one tempo valid for every section is drawn
    from the sorted common tempos and every list keeps only its fits (error
    when none is common). With one band per section (per-scene-energy mode)
    each list keeps its fits inside its band, falling back to the untrimmed
    list when the band has no fit.
    """
    if bands is None:
        tempo_sets = [{f.tempo for f in fits} for fits in per_section_fits]
        common = sorted(set.intersection(*tempo_sets)) if tempo_sets else []
        if not common:
            raise NoConsistentTempoError(
                "no single tempo fits every section; "
                "consider per-scene-energy mode"
            )
        tempo = common[SeededRng(rng_seed, _TEMPO_STREAM).randrange(len(common))]
        return [[f for f in fits if f.tempo == tempo] for fits in per_section_fits]
    trimmed = []
    for fits, (lo, hi) in zip(per_section_fits, bands):
        in_band = [f for f in fits if lo <= f.tempo <= hi]
        trimmed.append(in_band if in_band else list(fits))
    return trimmed


def finalize_plan(
    durations: Sequence[float],
    candidates: Sequence[Sequence[Fit]],
    energies: Sequence[EnergyLabel],
    direction_slopes: Sequence[DirectionSlope],
    mood: str,
    complexity: str,
    rng_seed: int,
) -> CompositionPlan:
    """Draw one candidate per section and assemble the plan.

    A section's id is its position. ``mood`` is recorded as given: what
    ``load_mood`` takes, a preset name or a mood file's path.
    """
    sections: List[SectionSpec] = []
    for i, (duration, fits) in enumerate(zip(durations, candidates)):
        rng = SeededRng(rng_seed, i)
        fit = fits[rng.randrange(len(fits))]
        sections.append(SectionSpec(
            section_id=i,
            time_signature=fit.time_signature,
            tempo=fit.tempo,
            energy=energies[i],
            duration_s=duration,
            phrases=fit.phrases,
            direction=direction_slopes[i].direction,
            slope=direction_slopes[i].slope,
        ))

    return CompositionPlan(
        total_duration_s=sum(durations),
        mood=mood,
        complexity=complexity,
        rng_seed=rng_seed,
        sections=tuple(sections),
    )


# -- plan INI interchange -------------------------------------------------------

_GLOBAL_KEYS = ("duration", "mood", "complexity", "seed")
_SECTION_KEYS = ("time_sig", "tempo", "energy", "duration", "direction", "slope")
_WORDS = {"direction": ("up", "down"), "slope": ("stay", "gradual", "steep")}

DurationValue = Union[float, Tuple[float, float]]


@dataclass(frozen=True)
class SectionEntry:
    section_id: int
    time_signature: Tuple[int, int]
    tempo: int
    energy: EnergyLabel
    duration: DurationValue  # exact target, or an unresolved (lo, hi) range
    direction: str
    slope: str


@dataclass(frozen=True)
class PlanDocument:
    total_duration_s: float
    mood: str
    complexity: str
    rng_seed: int
    entries: Tuple[SectionEntry, ...]

    @property
    def has_ranges(self) -> bool:
        return any(isinstance(e.duration, tuple) for e in self.entries)


def plan_to_ini(plan: CompositionPlan) -> str:
    lines = [
        "[composition]",
        f"duration = {repr(float(plan.total_duration_s))}",
        f"mood = {plan.mood}",
        f"complexity = {plan.complexity}",
        f"seed = {plan.rng_seed}",
    ]
    for section in plan.sections:
        n, d = section.time_signature
        lines += [
            "",
            f"[section{section.section_id}]",
            f"time_sig = {n}/{d}",
            f"tempo = {section.tempo}",
            f"energy = {section.energy.value}",
            f"duration = {repr(float(section.duration_s))}",
            f"direction = {section.direction}",
            f"slope = {section.slope}",
        ]
    return "\n".join(lines) + "\n"


def _parse_duration(value: str, lineno: int) -> DurationValue:
    if " to " in value:
        lo_text, _, hi_text = value.partition(" to ")
        try:
            lo, hi = float(lo_text), float(hi_text)
        except ValueError:
            raise PlanParseError(f"bad duration range {value!r}", line=lineno)
        if not 0 < lo <= hi < math.inf:
            raise PlanParseError(f"bad duration range {value!r}", line=lineno)
        return (lo, hi)
    try:
        duration = float(value)
    except ValueError:
        raise PlanParseError(f"bad duration {value!r}", line=lineno)
    if not 0 < duration < math.inf:
        raise PlanParseError(
            f"duration must be positive and finite, got {value!r}", line=lineno
        )
    return duration


def _parse_time_sig(value: str, lineno: int) -> Tuple[int, int]:
    num, sep, den = value.partition("/")
    if not sep:
        raise PlanParseError(f"bad time signature {value!r}", line=lineno)
    try:
        n, d = int(num), int(den)
    except ValueError:
        raise PlanParseError(f"bad time signature {value!r}", line=lineno)
    if not supported_meter(n, d):
        raise PlanParseError(f"unsupported time signature {value!r}", line=lineno)
    return (n, d)


def parse_ini(text: str) -> PlanDocument:
    """Parse a plan document, validating vocabulary and section numbering."""
    globals_: Dict[str, str] = {}
    section_rows: Dict[int, Dict[str, object]] = {}
    section_order: List[int] = []
    current: Optional[int] = None

    for lineno, section, key, value in iter_ini(text):
        if key is None:  # a section header
            if section == "composition":
                current = None
            elif section.startswith("section"):
                try:
                    sid = int(section[len("section"):])
                except ValueError:
                    raise PlanParseError(f"bad section header [{section}]", line=lineno)
                if sid in section_rows:
                    raise PlanParseError(f"duplicate section id {sid}", line=lineno)
                section_rows[sid] = {"_line": lineno}
                section_order.append(sid)
                current = sid
            else:
                raise PlanParseError(f"unknown block [{section}]", line=lineno)
            continue

        if current is None:
            if key not in _GLOBAL_KEYS:
                raise PlanParseError(f"unknown key {key!r} in [composition]", line=lineno)
            globals_[key] = value
            continue

        if key not in _SECTION_KEYS:
            raise PlanParseError(f"unknown key {key!r} in [section{current}]", line=lineno)
        row = section_rows[current]
        if key == "time_sig":
            row[key] = _parse_time_sig(value, lineno)
        elif key == "tempo":
            try:
                tempo = int(value)
            except ValueError:
                raise PlanParseError(f"bad tempo {value!r}", line=lineno)
            if not supported_tempo(tempo):
                raise PlanParseError(f"unsupported tempo {value!r}", line=lineno)
            row[key] = tempo
        elif key == "energy":
            try:
                row[key] = EnergyLabel(value)
            except ValueError:
                raise PlanParseError(f"unknown energy {value!r}", line=lineno)
        elif key == "duration":
            row[key] = _parse_duration(value, lineno)
        else:  # direction or slope
            if value not in _WORDS[key]:
                raise PlanParseError(f"unknown {key} {value!r}", line=lineno)
            row[key] = value

    for field in _GLOBAL_KEYS:
        if field not in globals_:
            raise PlanParseError(f"[composition] is missing {field!r}")
    try:
        total = float(globals_["duration"])
        seed = int(globals_["seed"])
    except ValueError as exc:
        raise PlanParseError(f"bad [composition] value: {exc}")
    if not math.isfinite(total):
        raise PlanParseError(f"bad [composition] duration {globals_['duration']!r}")
    if globals_["complexity"] not in COMPLEXITIES:
        raise PlanParseError(f"unknown complexity {globals_['complexity']!r}")

    if sorted(section_order) != list(range(len(section_order))):
        raise PlanParseError(
            f"section ids must run 0..{len(section_order) - 1} with no gaps, "
            f"got {sorted(section_order)}"
        )
    if not section_order:
        raise PlanParseError("plan has no sections")

    entries = []
    for sid in sorted(section_rows):
        row = section_rows[sid]
        for field in _SECTION_KEYS:
            if field not in row:
                raise PlanParseError(
                    f"[section{sid}] is missing {field!r}", line=row["_line"]
                )
        entries.append(
            SectionEntry(
                section_id=sid,
                time_signature=row["time_sig"],
                tempo=row["tempo"],
                energy=row["energy"],
                duration=row["duration"],
                direction=row["direction"],
                slope=row["slope"],
            )
        )
    return PlanDocument(
        total_duration_s=total,
        mood=globals_["mood"],
        complexity=globals_["complexity"],
        rng_seed=seed,
        entries=tuple(entries),
    )


def resolve_plan(
    doc: PlanDocument,
    mood: Optional[MoodConfig] = None,
    tolerance_s: float = DEFAULT_TOLERANCE_S,
) -> CompositionPlan:
    """Turn a parsed document into a full plan, solving phrase counts.

    Exact durations must admit a whole number of phrases at the stated tempo
    and signature; ranges resolve to the whole phrase count nearest the range
    midpoint.
    """
    mood = mood or load_mood(doc.mood)
    sections = []
    for entry in doc.entries:
        phrase_s = phrase_seconds(entry.tempo, entry.time_signature, mood.phrase_length_bars)
        if isinstance(entry.duration, tuple):
            lo, hi = entry.duration
            first = max(1, math.ceil((lo - tolerance_s) / phrase_s))
            last = math.floor((hi + tolerance_s) / phrase_s)
            if last < first:
                raise UnplannableSectionError(entry.section_id, (lo + hi) / 2.0)
            mid = (lo + hi) / 2.0
            phrases = min(range(first, last + 1), key=lambda p: (abs(p * phrase_s - mid), p))
            duration = phrases * phrase_s
        else:
            duration = entry.duration
            phrases = _whole_phrases(duration, phrase_s, tolerance_s)
            if phrases is None:
                raise UnplannableSectionError(entry.section_id, duration)
        sections.append(
            SectionSpec(
                section_id=entry.section_id,
                time_signature=entry.time_signature,
                tempo=entry.tempo,
                energy=entry.energy,
                duration_s=duration,
                phrases=phrases,
                direction=entry.direction,
                slope=entry.slope,
            )
        )
    total = doc.total_duration_s
    if doc.has_ranges:
        total = sum(s.duration_s for s in sections)
    else:
        drift = abs(total - sum(s.duration_s for s in sections))
        if drift > tolerance_s * len(sections) + 1e-9:
            raise PlanParseError(
                f"composition duration {total} is {drift:.3f} s away from the "
                "section total"
            )
    return CompositionPlan(
        total_duration_s=total,
        mood=doc.mood,
        complexity=doc.complexity,
        rng_seed=doc.rng_seed,
        sections=tuple(sections),
    )

