"""Scene energy classification from object counts, plus tempo band and
direction/slope selection.

Counts come from a detections file produced by any external object detector,
either per scene or per frame (per-frame records are averaged over the scene
and rounded half-up). Scenes are labelled against the mean and population
standard deviation of all counts; the comparisons are done in exact rational
arithmetic so the labelling is invariant under positive affine rescaling of
the counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import (
    EmptyInputError,
    IncompleteDetectionsError,
    MalformedDetectionsError,
)
from .files import NUMBER, read_json
from .scenes import Scene


class EnergyLabel(str, Enum):
    """Energy levels, declared from low to high; this order is their rank."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def rank(self) -> int:
        return list(EnergyLabel).index(self) + 1


# plan.ini's words for where a section's layers head, and how fast
DIRECTIONS = ("up", "down")
SLOPES = ("stay", "gradual", "steep")


@dataclass(frozen=True)
class DirectionSlope:
    direction: str  # one of DIRECTIONS
    slope: str  # one of SLOPES


SceneCounts = Dict[int, float]


def _count(value) -> float:
    """A detection count: a JSON number that is finite and not negative."""
    if type(value) in NUMBER and 0 <= value < math.inf:
        return float(value)  # OverflowError past the largest float
    raise ValueError(f"bad count {value!r}")


def load_detections(path: str, scenes: List[Scene]) -> SceneCounts:
    """Read a detections file and return one count per scene.

    Accepts ``{"per_scene": {"<id>": count}}`` or
    ``{"per_frame": [{"frame": i, "count": c}]}``; per-frame records are
    attributed to scenes via the scene list, averaged, and rounded half-up.
    """
    doc = read_json(path, MalformedDetectionsError, "detections")
    ids = {str(scene.id): scene.id for scene in scenes}
    counts: SceneCounts = {}

    if "per_scene" in doc:
        if not isinstance(doc["per_scene"], dict):
            raise MalformedDetectionsError("'per_scene' must map scene ids to counts")
        for key, value in doc["per_scene"].items():
            if key not in ids:  # a JSON key is a string: a scene id's decimal form
                raise MalformedDetectionsError(f"unknown scene id {key!r}")
            try:
                counts[ids[key]] = _count(value)
            except (OverflowError, ValueError) as exc:
                raise MalformedDetectionsError(f"bad per_scene entry {key!r}: {exc}") from exc
    elif "per_frame" in doc:
        if not isinstance(doc["per_frame"], list):
            raise MalformedDetectionsError("'per_frame' must be a list of records")
        sums = [0.0] * len(scenes)  # by scene position, which bisect gives
        hits = [0] * len(scenes)
        starts = [scene.start_frame for scene in scenes]  # the scenes tile the video
        for record in doc["per_frame"]:
            try:
                frame, count = record["frame"], _count(record["count"])
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise MalformedDetectionsError(f"bad per_frame record {record!r}: {exc}") from exc
            if type(frame) is not int or not starts[0] <= frame < scenes[-1].end_frame:
                raise MalformedDetectionsError(f"frame {frame!r} outside the video, or no integer")
            index = bisect_right(starts, frame) - 1
            sums[index] += count
            hits[index] += 1
        for scene, total, n in zip(scenes, sums, hits):
            if n:
                mean = total / n
                if not math.isfinite(mean):
                    raise MalformedDetectionsError(f"counts for scene {scene.id} overflow")
                counts[scene.id] = float(int(mean + 0.5))  # round half-up
    else:
        raise MalformedDetectionsError("detections need 'per_scene' or 'per_frame'")

    missing = sorted(set(ids.values()) - set(counts))
    if missing:
        raise IncompleteDetectionsError(f"no counts for scene ids {missing}")
    return counts


def classify_energy(counts: SceneCounts) -> Dict[int, EnergyLabel]:
    """Label each scene low/medium/high against mean +/- one std deviation.

    Population standard deviation; sigma = 0 (all equal, or one scene)
    degenerates to all medium. Thresholds are compared exactly: low means
    count < mu - sigma, high means count >= mu + sigma.
    """
    if not counts:
        raise EmptyInputError("no scene counts")
    values = [Fraction(counts[k]) for k in sorted(counts)]
    n = len(values)
    mu = sum(values) / n
    var = sum((v - mu) ** 2 for v in values) / n

    labels: Dict[int, EnergyLabel] = {}
    for scene_id in sorted(counts):
        value = Fraction(counts[scene_id])
        diff = value - mu
        if var == 0:
            label = EnergyLabel.MEDIUM
        elif diff >= 0 and diff * diff >= var:
            label = EnergyLabel.HIGH
        elif diff < 0 and diff * diff > var:
            label = EnergyLabel.LOW
        else:
            label = EnergyLabel.MEDIUM
        labels[scene_id] = label
    return labels


def assign_tempo_band(label: EnergyLabel, tempo_range: Tuple[int, int]) -> Tuple[int, int]:
    """Split the mood tempo range into three contiguous thirds.

    Interior cut points floor to integers; low takes the bottom third, medium
    the middle, high the top.
    """
    lo, hi = tempo_range
    span = hi - lo
    cut1 = lo + span // 3
    cut2 = lo + (2 * span) // 3
    if label is EnergyLabel.LOW:
        return (lo, cut1)
    if label is EnergyLabel.MEDIUM:
        return (cut1, cut2)
    return (cut2, hi)


def choose_direction_slope(labels: Sequence[EnergyLabel]) -> List[DirectionSlope]:
    """Rank-difference table against the next scene; the final scene repeats
    its own energy, so it always lands on (up, stay)."""
    if not labels:
        raise EmptyInputError("no energy labels")
    table = {
        0: DirectionSlope("up", "stay"),
        1: DirectionSlope("up", "gradual"),
        2: DirectionSlope("up", "steep"),
        -1: DirectionSlope("down", "gradual"),
        -2: DirectionSlope("down", "steep"),
    }
    out: List[DirectionSlope] = []
    for i, label in enumerate(labels):
        nxt = labels[i + 1] if i + 1 < len(labels) else label
        out.append(table[nxt.rank - label.rank])
    return out
