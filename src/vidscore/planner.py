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
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
# bars a plan.ini section may span: 5.5 hours at 120 BPM in 4/4, where the
# longest benchmark section spans 132
MAX_SECTION_BARS = 10_000

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
    quotient = target_s / phrase_s
    if math.isinf(quotient):  # a finite duration over a short phrase can overflow
        return None
    phrases = round(quotient)
    if phrases >= 1 and abs(phrases * phrase_s - target_s) <= tolerance_s:
        return phrases
    return None


def fit_tolerance(frame_period_s: float) -> float:
    """Half a frame period, capped at 10 ms."""
    return min(DEFAULT_TOLERANCE_S, frame_period_s / 2.0)


def enumerate_fits(
    duration_s: float, mood: MoodConfig, tolerance_s: float = DEFAULT_TOLERANCE_S
) -> List[Fit]:
    """Every (tempo, signature, phrases) whose duration hits the target
    within the bar budget, so that every plan written can be composed."""
    if duration_s <= 0:
        return []
    fits: List[Fit] = []
    lo, hi = mood.tempo_range
    for tempo in range(lo, hi + 1):
        for signature in sorted(mood.time_signatures):
            phrase_s = phrase_seconds(tempo, signature, mood.phrase_length_bars)
            phrases = _whole_phrases(duration_s, phrase_s, tolerance_s)
            if phrases is not None and phrases * mood.phrase_length_bars <= MAX_SECTION_BARS:
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

DurationValue = Union[float, Tuple[float, float]]


@dataclass(frozen=True)
class SectionEntry:
    section_id: int
    time_signature: Tuple[int, int]
    tempo: int
    energy: EnergyLabel
    duration_s: DurationValue  # exact target, or an unresolved (lo, hi) range
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
        return any(isinstance(e.duration_s, tuple) for e in self.entries)


def _checked(kind: Callable[[str], Any], bad: str,
             ok: Callable[[Any], bool] = lambda value: True, unsupported: str = ""):
    """A parser that converts a value's text with ``kind`` and keeps the
    result only if ``ok`` accepts it. Its ValueError carries ``bad``, formatted
    with the ``text`` and the conversion's error ``exc``, when ``kind`` fails,
    and ``unsupported`` (``bad`` when empty) when ``ok`` refuses."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise ValueError(bad.format(text=text, exc=exc))
        if not ok(value):
            raise ValueError((unsupported or bad).format(text=text))
        return value
    return parse


def _meter(text: str) -> Tuple[int, int]:
    num, _, den = text.partition("/")  # no "/" leaves den empty, which int() rejects
    return (int(num), int(den))


def _parse_duration(text: str) -> DurationValue:
    if " to " in text:
        lo_text, _, hi_text = text.partition(" to ")
        try:
            lo, hi = float(lo_text), float(hi_text)
        except ValueError:
            raise ValueError(f"bad duration range {text!r}")
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"bad duration range {text!r}")
        return (lo, hi)
    try:
        duration = float(text)
    except ValueError:
        raise ValueError(f"bad duration {text!r}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {text!r}")
    return duration


def _seconds(value: float) -> str:
    return repr(float(value))


# One table per block: plan.ini key -> (field, parse, write), in the order
# plan_to_ini writes the keys. The fields are CompositionPlan's and
# PlanDocument's, then SectionSpec's and SectionEntry's. parse_ini reports a
# parser's ValueError at the value's line.
_Field = Tuple[str, Callable[[str], Any], Callable[[Any], str]]
_BAD_VALUE = "bad [composition] value: {exc}"
_COMPOSITION: Dict[str, _Field] = {
    "duration": ("total_duration_s", _checked(float, _BAD_VALUE, math.isfinite,
                                              "bad [composition] duration {text!r}"), _seconds),
    "mood": ("mood", str, str),
    "complexity": ("complexity", _checked(str, "unknown complexity {text!r}",
                                          COMPLEXITIES.__contains__), str),
    "seed": ("rng_seed", _checked(int, _BAD_VALUE), str),
}
_SECTION: Dict[str, _Field] = {
    "time_sig": ("time_signature",
                 _checked(_meter, "bad time signature {text!r}", lambda sig: supported_meter(*sig),
                          "unsupported time signature {text!r}"), lambda sig: "%d/%d" % sig),
    "tempo": ("tempo", _checked(int, "bad tempo {text!r}", supported_tempo,
                                "unsupported tempo {text!r}"), str),
    "energy": ("energy", _checked(EnergyLabel, "unknown energy {text!r}"), attrgetter("value")),
    "duration": ("duration_s", _parse_duration, _seconds),
    "direction": ("direction", _checked(str, "unknown direction {text!r}",
                                        ("up", "down").__contains__), str),
    "slope": ("slope", _checked(str, "unknown slope {text!r}",
                                ("stay", "gradual", "steep").__contains__), str),
}


def _block(header: str, record, table: Dict[str, _Field]) -> str:
    lines = [f"[{header}]"]
    lines += [f"{key} = {write(getattr(record, field))}" for key, (field, _, write) in table.items()]
    return "\n".join(lines)


def plan_to_ini(plan: CompositionPlan) -> str:
    blocks = [_block("composition", plan, _COMPOSITION)]
    blocks += [_block(f"section{s.section_id}", s, _SECTION) for s in plan.sections]
    return "\n\n".join(blocks) + "\n"


def parse_ini(text: str) -> PlanDocument:
    """Parse a plan document, validating vocabulary and section numbering."""
    composition: Dict[str, Any] = {}
    sections: Dict[int, Dict[str, Any]] = {}
    header_line: Dict[int, int] = {}
    # the first header replaces these: iter_ini rejects a key before it
    fields, table, block = composition, _COMPOSITION, "composition"

    for lineno, section, key, value in iter_ini(text):
        if key is None:  # a section header
            if section == "composition":
                fields, table, block = composition, _COMPOSITION, section
            elif section.startswith("section"):
                try:
                    sid = int(section[len("section"):])
                except ValueError:
                    raise PlanParseError(f"bad section header [{section}]", line=lineno)
                if sid in sections:
                    raise PlanParseError(f"duplicate section id {sid}", line=lineno)
                fields = sections[sid] = {}
                header_line[sid] = lineno
                table, block = _SECTION, f"section{sid}"
            else:
                raise PlanParseError(f"unknown block [{section}]", line=lineno)
            continue

        if key not in table:
            raise PlanParseError(f"unknown key {key!r} in [{block}]", line=lineno)
        field, parse, _ = table[key]
        try:
            fields[field] = parse(value)
        except ValueError as exc:
            raise PlanParseError(str(exc), line=lineno)

    ids = sorted(sections)
    if ids != list(range(len(ids))):
        raise PlanParseError(f"section ids must run 0..{len(ids) - 1} with no gaps, got {ids}")
    if not ids:
        raise PlanParseError("plan has no sections")
    blocks = [("composition", composition, _COMPOSITION, None)]
    blocks += [(f"section{sid}", sections[sid], _SECTION, header_line[sid]) for sid in ids]
    for block, fields, table, line in blocks:
        for key, (field, _, _) in table.items():
            if field not in fields:
                raise PlanParseError(f"[{block}] is missing {key!r}", line=line)
    entries = tuple(SectionEntry(section_id=sid, **sections[sid]) for sid in ids)
    for entry in entries:
        bars = _bars(entry)
        if bars > MAX_SECTION_BARS:
            raise PlanParseError(
                f"section {entry.section_id} spans {bars} bars, over the budget of "
                f"{MAX_SECTION_BARS}", line=header_line[entry.section_id])
    return PlanDocument(entries=entries, **composition)


def _bars(entry: SectionEntry) -> float:
    """Whole bars in a section's duration, or in a range's upper end, or inf
    where the quotient overflows. Within the fit tolerance of an exact
    duration, this is its phrases x phrase bars."""
    duration = entry.duration_s[1] if isinstance(entry.duration_s, tuple) else entry.duration_s
    bars = duration / phrase_seconds(entry.tempo, entry.time_signature, 1)
    return bars if math.isinf(bars) else round(bars)


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
        if isinstance(entry.duration_s, tuple):
            lo, hi = entry.duration_s
            first = max(1, math.ceil((lo - tolerance_s) / phrase_s))
            last = math.floor((hi + tolerance_s) / phrase_s)
            if last < first:
                raise UnplannableSectionError(entry.section_id, (lo + hi) / 2.0)
            mid = (lo + hi) / 2.0
            # |p * phrase_s - mid| falls, then rises, as p grows, so the
            # nearest count is next to mid / phrase_s (one further each way
            # covers rounding), or the range end nearest to it
            near = math.floor(mid / phrase_s)
            phrases = min({min(max(p, first), last) for p in range(near - 1, near + 3)},
                          key=lambda p: (abs(p * phrase_s - mid), p))
            duration = phrases * phrase_s
        else:
            duration = entry.duration_s
            phrases = _whole_phrases(duration, phrase_s, tolerance_s)
            if phrases is None:
                raise UnplannableSectionError(entry.section_id, duration)
        sections.append(SectionSpec(**{**vars(entry), "duration_s": duration, "phrases": phrases}))
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

