"""Cut and fade detection over the statistics stream, merged into one scene list.

``detect_transitions`` runs two detectors over one pass of the stream:

* cut detection marks every frame whose HSV delta against the previous frame
  reaches the cut threshold, dropping one closer than ``min_scene_frames`` to
  the previously accepted cut;
* fade detection marks an interval from the first frame whose average
  intensity drops below the fade threshold to the first frame that returns
  above it (any fade through black necessarily contains such frames); a fade
  still open at stream end closes at the final frame.

``detect_scenes`` feeds both lists to ``merge_scene_lists``. A fade
contributes a single scene boundary at its midpoint frame, opening the
following scene with ``fade-in`` and closing the preceding one with
``fade-out``. Boundaries from both detectors that land within the merge
tolerance are coalesced, earliest first; on an exact tie the fade boundary
wins because it carries the transition kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Iterable, List, Optional, Tuple

from .errors import ConfigError, EmptyVideoError, MalformedSourceError

OPENS = ("start-of-video", "cut", "fade-in")
CLOSES = ("end-of-video", "cut", "fade-out")


# The frame geometry and per-frame statistics the detectors read live here,
# not in ``frames``, so scenes and everything downstream import without numpy.
@dataclass(frozen=True)
class FrameSpec:
    width: int
    height: int
    fps_num: int
    fps_den: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MalformedSourceError(f"bad frame size {self.width}x{self.height}")
        if self.fps_num < 1 or self.fps_den < 1:
            raise MalformedSourceError(f"bad frame rate {self.fps_num}/{self.fps_den}")

    @property
    def frame_bytes(self) -> int:
        return 3 * self.width * self.height

    @property
    def frame_period_s(self) -> float:
        return self.fps_den / self.fps_num

    def timestamp(self, index: int) -> float:
        return index * self.fps_den / self.fps_num


@dataclass(frozen=True)
class FrameStats:
    index: int
    avg_intensity: float
    hsv_delta: Optional[float]  # None for frame 0


@dataclass(frozen=True)
class DetectorConfig:
    fade_threshold: float = 12.0
    cut_threshold: float = 30.0
    min_scene_frames: int = 15
    merge_tolerance_s: float = 0.1

    def __post_init__(self):
        if not (0 < self.fade_threshold < 255):
            raise ConfigError(f"fade_threshold {self.fade_threshold} out of (0, 255)")
        if not (0 < self.cut_threshold < 255):
            raise ConfigError(f"cut_threshold {self.cut_threshold} out of (0, 255)")
        if self.min_scene_frames < 1:
            raise ConfigError("min_scene_frames must be >= 1")
        if not (0 <= self.merge_tolerance_s < float("inf")):  # also rejects NaN
            raise ConfigError(f"merge_tolerance_s {self.merge_tolerance_s} out of [0, inf)")


@dataclass(frozen=True)
class Scene:
    id: int
    start_frame: int
    end_frame: int  # exclusive
    start_s: float
    end_s: float
    opens_with: str
    closes_with: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def merge_scene_lists(
    cuts: List[int],
    fades: List[Tuple[int, int]],
    total_frames: int,
    spec: FrameSpec,
    config: DetectorConfig,
) -> List[Scene]:
    """Combine both detectors' boundaries into a scene list tiling the video."""
    if total_frames <= 0:
        raise EmptyVideoError("no frames in source")

    # (frame, tie_rank, opens, closes); fades sort ahead of cuts on a tie
    candidates = [(frame, 1, "cut", "cut") for frame in cuts]
    for start, end in fades:
        midpoint = (start + end) // 2
        candidates.append((midpoint, 0, "fade-in", "fade-out"))
    candidates = [c for c in candidates if 0 < c[0] < total_frames]
    candidates.sort()

    tolerance_frames = config.merge_tolerance_s * spec.fps_num / spec.fps_den
    merged = []
    for cand in candidates:
        if merged and cand[0] - merged[-1][0] <= tolerance_frames:
            continue  # earliest boundary of the cluster wins
        merged.append(cand)

    scenes: List[Scene] = []
    edges = [0] + [c[0] for c in merged] + [total_frames]
    for i in range(len(edges) - 1):
        start, end = edges[i], edges[i + 1]
        opens = "start-of-video" if i == 0 else merged[i - 1][2]
        closes = "end-of-video" if i == len(edges) - 2 else merged[i][3]
        scenes.append(
            Scene(
                id=i,
                start_frame=start,
                end_frame=end,
                start_s=spec.timestamp(start),
                end_s=spec.timestamp(end),
                opens_with=opens,
                closes_with=closes,
            )
        )
    return scenes


def detect_transitions(
    stats: Iterable[FrameStats], config: DetectorConfig
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """One streaming pass feeding both detectors: (cut frames, (start, end) fades)."""
    cuts: List[int] = []
    fades: List[Tuple[int, int]] = []
    fade_start = None
    last_index = None
    for entry in stats:
        last_index = entry.index
        if entry.hsv_delta is not None and entry.hsv_delta >= config.cut_threshold:
            if not cuts or entry.index - cuts[-1] >= config.min_scene_frames:
                cuts.append(entry.index)
        if fade_start is None:
            if entry.avg_intensity < config.fade_threshold:
                fade_start = entry.index
        elif entry.avg_intensity >= config.fade_threshold:
            fades.append((fade_start, entry.index))
            fade_start = None
    if fade_start is not None and last_index is not None:
        fades.append((fade_start, last_index))
    return cuts, fades


def detect_scenes(stats, total_frames, spec, config=None) -> List[Scene]:
    """Both detectors over one pass, then the merge."""
    config = config or DetectorConfig()
    return merge_scene_lists(*detect_transitions(stats, config), total_frames, spec, config)


# -- scene list interchange ----------------------------------------------------

def scenes_to_json(
    scenes: List[Scene], fps: Tuple[int, int], total_frames: int
) -> str:
    doc = {
        "fps": [fps[0], fps[1]],
        "total_frames": total_frames,
        "scenes": [
            {**asdict(s), "start_s": round(s.start_s, 3), "end_s": round(s.end_s, 3)}
            for s in scenes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def scenes_from_json(text: str) -> Tuple[List[Scene], Tuple[int, int], int]:
    """Parse a scene list document.

    Frame bounds are authoritative; timestamps are recomputed from the frame
    rate so a serialize/parse round trip is the identity (the JSON stores
    times at millisecond precision for human consumption only).
    """
    try:
        doc = json.loads(text)
        num, den = (int(x) for x in doc["fps"])
        if num < 1 or den < 1:
            raise ValueError(f"bad frame rate {num}/{den}")
        total = int(doc["total_frames"])
        scenes = []
        for raw in doc["scenes"]:
            start, end = int(raw["start_frame"]), int(raw["end_frame"])
            if raw["opens_with"] not in OPENS or raw["closes_with"] not in CLOSES:
                raise MalformedSourceError(
                    f"scene {raw.get('id')}: unknown transition kind"
                )
            scenes.append(
                Scene(
                    id=int(raw["id"]),
                    start_frame=start,
                    end_frame=end,
                    start_s=start * den / num,
                    end_s=end * den / num,
                    opens_with=raw["opens_with"],
                    closes_with=raw["closes_with"],
                )
            )
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise MalformedSourceError(f"bad scene list document: {exc}") from exc
    _check_tiling(scenes, total)
    return scenes, (num, den), total


def _check_tiling(scenes: List[Scene], total_frames: int) -> None:
    if not scenes:
        raise EmptyVideoError("scene list is empty")
    expect = 0
    for i, scene in enumerate(scenes):
        if scene.id != i or scene.start_frame != expect:
            raise MalformedSourceError(f"scene list does not tile at scene {i}")
        if scene.end_frame <= scene.start_frame:
            raise MalformedSourceError(f"scene {i} is empty or reversed")
        expect = scene.end_frame
    if expect != total_frames:
        raise MalformedSourceError(
            f"scenes cover {expect} frames, expected {total_frames}"
        )
