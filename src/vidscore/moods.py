"""Mood presets: tempo range, meters, scale, chord progressions and layers.

A mood bundles everything the planner and composer need to realize a section.
Eight presets ship as JSON documents under ``data/moods``; custom moods can be
loaded from any file with the same schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Dict, List, Tuple

from .energy import EnergyLabel
from .errors import ConfigError
from .files import ints, read_json, typed

COMPLEXITIES = ("simple", "semi-complex", "complex")
DENSITIES = ("sparse", "medium", "dense")

# the composer derives one rng stream per (section, rank) in blocks of
# MAX_ACTIVATION_RANK + 1, with rank 0 the section's own stream
MAX_ACTIVATION_RANK = 999

_NOTE_PC = {
    "C": 0, "C#": 1, "Db": 1, "D": 2, "D#": 3, "Eb": 3, "E": 4, "F": 5,
    "F#": 6, "Gb": 6, "G": 7, "G#": 8, "Ab": 8, "A": 9, "A#": 10, "Bb": 10,
    "B": 11,
}

_MODE_STEPS = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "minor": (0, 2, 3, 5, 7, 8, 10),
    "dorian": (0, 2, 3, 5, 7, 9, 10),
    "phrygian": (0, 1, 3, 5, 7, 8, 10),
    "lydian": (0, 2, 4, 6, 7, 9, 11),
    "mixolydian": (0, 2, 4, 5, 7, 9, 10),
}


@dataclass(frozen=True)
class Scale:
    root: str
    mode: str

    @property
    def root_pc(self) -> int:
        return _NOTE_PC[self.root]

    @cached_property
    def pitch_classes(self) -> Tuple[int, ...]:
        """Pitch classes of the seven scale degrees, in degree order."""
        return tuple((self.root_pc + step) % 12 for step in _MODE_STEPS[self.mode])

    def degree_pc(self, degree: int) -> int:
        """Pitch class of a 1-based scale degree (wraps past 7)."""
        return self.pitch_classes[(degree - 1) % 7]

    def triad_pcs(self, degree: int) -> Tuple[int, int, int]:
        """Diatonic triad on a degree: root, third and fifth pitch classes."""
        return (self.degree_pc(degree), self.degree_pc(degree + 2), self.degree_pc(degree + 4))


@dataclass(frozen=True)
class LayerDef:
    label: str
    activation_rank: int
    register: Tuple[int, int]
    rhythm_density: str


@dataclass(frozen=True)
class MoodConfig:
    name: str
    tempo_range: Tuple[int, int]
    time_signatures: Tuple[Tuple[int, int], ...]
    phrase_length_bars: int
    layers_per_energy: Dict[str, Tuple[int, int]]
    scale: Scale
    progressions: Dict[str, List[List[int]]]
    instrument_layers: Tuple[LayerDef, ...]

    @property
    def total_layers(self) -> int:
        return len(self.instrument_layers)

    def layers_by_rank(self) -> List[LayerDef]:
        return sorted(self.instrument_layers, key=lambda l: l.activation_rank)


def supported_meter(n: int, d: int) -> bool:
    """Whether n/d is a time signature moods and plans may use."""
    return 2 <= n <= 12 and d in (2, 4, 8)


def supported_tempo(bpm: int) -> bool:
    """Whether moods and plans may use a tempo. 4 BPM is the slowest whose
    round(60e6 / bpm) microseconds per quarter fit the SMF tempo meta's 3
    bytes. 1000 BPM is a musical ceiling: a section's note count grows with
    its tempo, and a mood's fit search tries every tempo in its range."""
    return 4 <= bpm <= 1000


def _validate(mood: MoodConfig) -> MoodConfig:
    lo, hi = mood.tempo_range
    if not (lo <= hi and supported_tempo(lo) and supported_tempo(hi)):
        raise ConfigError(f"mood {mood.name}: bad tempo range {mood.tempo_range}")
    if not mood.time_signatures:
        raise ConfigError(f"mood {mood.name}: no time signatures")
    for n, d in mood.time_signatures:
        if not supported_meter(n, d):
            raise ConfigError(f"mood {mood.name}: unsupported signature {n}/{d}")
    if mood.phrase_length_bars < 1:
        raise ConfigError(f"mood {mood.name}: bad phrase length")
    maxes = []
    for level in (label.value for label in EnergyLabel):
        if level not in mood.layers_per_energy:
            raise ConfigError(f"mood {mood.name}: missing {level} layer range")
        rng_lo, rng_hi = mood.layers_per_energy[level]
        if not (1 <= rng_lo <= rng_hi <= mood.total_layers):
            raise ConfigError(f"mood {mood.name}: bad {level} layer range")
        maxes.append(rng_hi)
    if not (maxes[0] <= maxes[1] <= maxes[2]):
        raise ConfigError(f"mood {mood.name}: layer maxima must be ordered")
    if mood.scale.root not in _NOTE_PC or mood.scale.mode not in _MODE_STEPS:
        raise ConfigError(f"mood {mood.name}: unknown scale {mood.scale}")
    for level in COMPLEXITIES:
        if not mood.progressions.get(level) or not all(mood.progressions[level]):
            raise ConfigError(f"mood {mood.name}: no {level} progressions, or an empty one")
    labels = [layer.label for layer in mood.instrument_layers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"mood {mood.name}: repeats a layer label: {labels}")
    ranks = [layer.activation_rank for layer in mood.instrument_layers]
    if len(set(ranks)) != len(ranks):
        raise ConfigError(f"mood {mood.name}: duplicate activation ranks")
    if any(not (1 <= rank <= MAX_ACTIVATION_RANK) for rank in ranks):
        raise ConfigError(
            f"mood {mood.name}: activation ranks must be in 1..{MAX_ACTIVATION_RANK}"
        )
    for layer in mood.instrument_layers:
        reg_lo, reg_hi = layer.register
        if not (0 <= reg_lo < reg_hi <= 127):
            raise ConfigError(f"mood {mood.name}: bad register for {layer.label}")
        if layer.rhythm_density not in DENSITIES:
            raise ConfigError(f"mood {mood.name}: bad density for {layer.label}")
    return mood


def _from_dict(doc: dict) -> MoodConfig:
    try:
        mood = MoodConfig(
            name=typed(doc["name"], str),
            tempo_range=ints(doc["tempo_range"], 2),
            time_signatures=tuple(
                ints(sig, 2) for sig in typed(doc["time_signatures"], list)
            ),
            phrase_length_bars=typed(doc.get("phrase_length_bars", 4), int),
            layers_per_energy={k: ints(v, 2) for k, v in doc["layers_per_energy"].items()},
            scale=Scale(root=typed(doc["scale"]["root"], str),
                        mode=typed(doc["scale"]["mode"], str)),
            progressions={
                k: [list(ints(p)) for p in typed(v, list)]
                for k, v in doc["progressions"].items()
            },
            instrument_layers=tuple(
                LayerDef(
                    label=typed(layer["label"], str),
                    activation_rank=typed(layer["activation_rank"], int),
                    register=ints(layer["register"], 2),
                    rhythm_density=typed(layer["rhythm_density"], str),
                )
                for layer in typed(doc["instrument_layers"], list)
            ),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad mood document: {exc}") from exc
    return _validate(mood)


def list_moods() -> List[str]:
    root = resources.files("vidscore").joinpath("data/moods")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_mood(name: str) -> MoodConfig:
    """Load a shipped preset by name, or any mood file by path."""
    if name.endswith(".json"):
        return _from_dict(read_json(name, ConfigError, "mood file"))
    entry = resources.files("vidscore").joinpath(f"data/moods/{name}.json")
    if not entry.is_file():
        raise ConfigError(f"unknown mood {name!r} (have: {', '.join(list_moods())})")
    return _from_dict(json.loads(entry.read_text(encoding="utf-8")))
