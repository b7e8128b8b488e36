"""Scene-to-section mapping and the exact-duration solver.

Every scene becomes one musical section. For a target duration the solver
enumerates all (tempo, time signature) pairs the mood allows and keeps those
where a whole number of phrases lands on the target within tolerance:

    phrase_seconds = phrase_bars * n * (4 / d) * 60 / tempo

Candidate survival can additionally be constrained to a single tempo across
the whole soundtrack (global mode) or to each scene's energy tempo band
(per-scene-energy mode). One surviving candidate per section is then drawn
with a deterministic generator keyed by (seed, section id), so regenerating a
plan with one edited section leaves every other section's draw unchanged.

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
from .moods import COMPLEXITIES, MoodConfig, load_mood
from .rng import SeededRng
from .scenes import Scene

DEFAULT_TOLERANCE_S = 0.010
DEFAULT_SEED = 0xC0FFEE

# reserved stream id for the shared-tempo draw; section streams use their id
_TEMPO_STREAM = 1 << 32

ROLES = ("intro", "verse", "chorus", "coda")
PLANNER_MODES = ("global", "per-scene-energy")


class Fit(NamedTuple):
    tempo: int
    time_signature: Tuple[int, int]
    phrases: int


@dataclass(frozen=True)
class SectionDraft:
    section_id: int
    duration_s: float
    role: str


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

    def realized_s(self, phrase_bars: int) -> float:
        return self.phrases * phrase_seconds(self.tempo, self.time_signature, phrase_bars)


@dataclass(frozen=True)
class CompositionPlan:
    total_duration_s: float
    mood: str
    complexity: str
    rng_seed: int
    sections: Tuple[SectionSpec, ...]
    roles: Tuple[str, ...]


def roles_for_count(count: int) -> List[str]:
    """First section is the intro, last the coda, interior alternates
    verse/chorus starting with verse. One section is just an intro."""
    if count < 1:
        raise EmptyInputError("no sections")
    if count == 1:
        return ["intro"]
    roles = ["intro"]
    for i in range(count - 2):
        roles.append("verse" if i % 2 == 0 else "chorus")
    roles.append("coda")
    return roles


def sections_from_scenes(scenes: Sequence[Scene]) -> List[SectionDraft]:
    if not scenes:
        raise EmptyInputError("no scenes")
    roles = roles_for_count(len(scenes))
    return [
        SectionDraft(section_id=i, duration_s=scene.duration_s, role=roles[i])
        for i, scene in enumerate(scenes)
    ]


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
    mode: str = "global",
    bands: Optional[List[Tuple[int, int]]] = None,
) -> List[List[Fit]]:
    """Trim candidate lists for tempo consistency.

    global: keep only tempos valid for every section (error when none is).
    per-scene-energy: keep each section's fits inside its energy tempo band,
    falling back to the untrimmed list when the band has no fit.
    """
    if mode == "global":
        tempo_sets = [{fit.tempo for fit in fits} for fits in per_section_fits]
        common = set.intersection(*tempo_sets) if tempo_sets else set()
        if not common:
            raise NoConsistentTempoError(
                "no single tempo fits every section; "
                "consider per-scene-energy mode"
            )
        return [[f for f in fits if f.tempo in common] for fits in per_section_fits]
    if mode == "per-scene-energy":
        if bands is None or len(bands) != len(per_section_fits):
            raise ValueError("per-scene-energy mode needs one tempo band per section")
        trimmed = []
        for fits, (lo, hi) in zip(per_section_fits, bands):
            in_band = [f for f in fits if lo <= f.tempo <= hi]
            trimmed.append(in_band if in_band else list(fits))
        return trimmed
    raise ValueError(f"unknown planner mode {mode!r}")


def finalize_plan(
    drafts: Sequence[SectionDraft],
    candidates: Sequence[Sequence[Fit]],
    energies: Sequence[EnergyLabel],
    direction_slopes: Sequence[DirectionSlope],
    mood: MoodConfig,
    complexity: str,
    rng_seed: int,
    shared_tempo: bool = False,
    tolerance_s: float = DEFAULT_TOLERANCE_S,
) -> CompositionPlan:
    """Draw one candidate per section and assemble the plan.

    The final section is re-fit against (total duration - realized duration of
    the earlier sections) when possible, so rounding drift across sections is
    absorbed rather than accumulated.
    """
    if not drafts:
        raise EmptyInputError("no sections to plan")
    if not (len(drafts) == len(candidates) == len(energies) == len(direction_slopes)):
        raise ValueError("drafts, candidates, energies and slopes must align")
    for draft, fits in zip(drafts, candidates):
        if not fits:
            raise UnplannableSectionError(draft.section_id, draft.duration_s)

    chosen_lists = [list(fits) for fits in candidates]
    if shared_tempo:
        common = sorted(set.intersection(*[{f.tempo for f in c} for c in chosen_lists]))
        if not common:
            raise NoConsistentTempoError("candidate lists share no tempo")
        tempo = common[SeededRng(rng_seed, _TEMPO_STREAM).randrange(len(common))]
        chosen_lists = [[f for f in fits if f.tempo == tempo] for fits in chosen_lists]

    total = sum(d.duration_s for d in drafts)
    sections: List[SectionSpec] = []
    realized_sum = 0.0
    for i, (draft, fits) in enumerate(zip(drafts, chosen_lists)):
        rng = SeededRng(rng_seed, draft.section_id)
        fit = fits[rng.randrange(len(fits))]
        if i == len(drafts) - 1 and len(drafts) > 1:
            fit = _refit_last(fit, fits, total - realized_sum, mood, tolerance_s)
        section = SectionSpec(
            section_id=draft.section_id,
            time_signature=fit.time_signature,
            tempo=fit.tempo,
            energy=energies[i],
            duration_s=draft.duration_s,
            phrases=fit.phrases,
            direction=direction_slopes[i].direction,
            slope=direction_slopes[i].slope,
        )
        realized_sum += section.realized_s(mood.phrase_length_bars)
        sections.append(section)

    return CompositionPlan(
        total_duration_s=total,
        mood=mood.name,
        complexity=complexity,
        rng_seed=rng_seed,
        sections=tuple(sections),
        roles=tuple(d.role for d in drafts),
    )


def _refit_last(
    fit: Fit,
    allowed: Sequence[Fit],
    adjusted_target: float,
    mood: MoodConfig,
    tolerance_s: float,
) -> Fit:
    """Re-aim the drawn candidate's phrase count at the drift-adjusted target.

    Only the phrase count may move, and only if it still fits within
    tolerance; otherwise the original draw stands.
    """
    phrase_s = phrase_seconds(fit.tempo, fit.time_signature, mood.phrase_length_bars)
    phrases = _whole_phrases(adjusted_target, phrase_s, tolerance_s)
    return fit if phrases is None else Fit(fit.tempo, fit.time_signature, phrases)


# -- plan INI interchange -------------------------------------------------------

_GLOBAL_KEYS = ("duration", "mood", "complexity", "seed")
_SECTION_KEYS = ("time_sig", "tempo", "energy", "duration", "direction", "slope")

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
        if lo <= 0 or hi < lo:
            raise PlanParseError(f"bad duration range {value!r}", line=lineno)
        return (lo, hi)
    try:
        duration = float(value)
    except ValueError:
        raise PlanParseError(f"bad duration {value!r}", line=lineno)
    if duration <= 0:
        raise PlanParseError(f"duration must be positive, got {value!r}", line=lineno)
    return duration


def _parse_time_sig(value: str, lineno: int) -> Tuple[int, int]:
    num, sep, den = value.partition("/")
    if not sep:
        raise PlanParseError(f"bad time signature {value!r}", line=lineno)
    try:
        n, d = int(num), int(den)
    except ValueError:
        raise PlanParseError(f"bad time signature {value!r}", line=lineno)
    if not (2 <= n <= 12) or d not in (2, 4, 8):
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
            if tempo < 1:
                raise PlanParseError(f"tempo must be positive, got {value!r}", line=lineno)
            row[key] = tempo
        elif key == "energy":
            if value not in ("low", "medium", "high"):
                raise PlanParseError(f"unknown energy {value!r}", line=lineno)
            row[key] = EnergyLabel(value)
        elif key == "duration":
            row[key] = _parse_duration(value, lineno)
        elif key == "direction":
            if value not in ("up", "down"):
                raise PlanParseError(f"unknown direction {value!r}", line=lineno)
            row[key] = value
        elif key == "slope":
            if value not in ("stay", "gradual", "steep"):
                raise PlanParseError(f"unknown slope {value!r}", line=lineno)
            row[key] = value

    for field in _GLOBAL_KEYS:
        if field not in globals_:
            raise PlanParseError(f"[composition] is missing {field!r}")
    try:
        total = float(globals_["duration"])
        seed = int(globals_["seed"])
    except ValueError as exc:
        raise PlanParseError(f"bad [composition] value: {exc}")
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
        roles=tuple(roles_for_count(len(sections))),
    )


def plan_from_ini(text: str, mood: Optional[MoodConfig] = None) -> CompositionPlan:
    return resolve_plan(parse_ini(text), mood=mood)
