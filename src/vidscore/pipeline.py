"""Pipeline stages behind the CLI: analyze, plan, compose, render, mux, mix-loops.

Each stage reads the previous stage's interchange file, so stages can be run
separately or chained by ``run``, which also writes a manifest recording the
per-stage timings, the files each stage read and wrote, tool versions and a
hash of the effective configuration. Each stage is declared once, in
``STAGES``: the CLI builds its subcommands from that table, and ``run``
chains the stages and takes each manifest entry's inputs from it. External
synthesis and muxing are plain command templates; the core stays
dependency-free.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, asdict, fields
from typing import List, Optional, Tuple

from . import __version__
from .composer import PERCUSSION_LABEL, compose_plan, score_debug_dump
from .energy import (
    EnergyLabel,
    assign_tempo_band,
    choose_direction_slope,
    classify_energy,
    load_detections,
)
from .errors import (ConfigError, ExternalToolError, InvalidEventError, MalformedSourceError,
                     PlanParseError, UnplannableSectionError)
from .files import artifact_record, publish, publish_after, read_input, staged
from .frames import fps_fraction, open_frame_source, stats_path, stream_stats
from .ini import iter_ini
from .loops import build_layer_schedule, load_stem_manifest, mix_stems, write_wav
from .midi import InstrumentMap, read_smf, write_smf
from .moods import COMPLEXITIES, load_mood
from .planner import (
    DEFAULT_SEED,
    PLANNER_MODES,
    enumerate_fits,
    finalize_plan,
    fit_tolerance,
    harmonize_tempo,
    parse_ini,
    plan_to_ini,
    resolve_plan,
    sections_from_scenes,
)
from .composer import load_seed_melody
from .scenes import (
    DetectorConfig,
    check_frame_rate,
    detect_scenes,
    scenes_from_json,
    scenes_to_json,
)


@dataclass
class PipelineConfig:
    source: Optional[str] = None
    fps: Optional[str] = None  # needed for image-directory sources, e.g. "30/1"
    fade_threshold: float = DetectorConfig.fade_threshold
    cut_threshold: float = DetectorConfig.cut_threshold
    min_scene_frames: int = DetectorConfig.min_scene_frames
    merge_tolerance_s: float = DetectorConfig.merge_tolerance_s
    mood: str = "inspire"
    complexity: str = "semi-complex"
    planner_mode: str = "global"
    rng_seed: int = DEFAULT_SEED
    detections: Optional[str] = None
    melody: Optional[str] = None
    instruments: Optional[str] = None
    render_template: Optional[str] = None
    mux_template: Optional[str] = None
    soundfont: Optional[str] = None
    stems: Optional[str] = None
    loop_mode: bool = False
    output_dir: str = "."

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(**{f.name: getattr(self, f.name) for f in fields(DetectorConfig)})

    def fps_pair(self) -> Optional[Tuple[int, int]]:
        """The configured frame rate as (num, den), checked whatever the source."""
        if self.fps is None:
            return None
        try:
            num, den = fps_fraction(self.fps)
            check_frame_rate(num, den)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad fps {self.fps!r:.80}: {exc}") from exc
        return num, den

    def out_path(self, name: str) -> str:
        try:
            os.makedirs(self.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.output_dir}: {exc}") from exc
        return os.path.join(self.output_dir, name)

    def mood_file(self) -> Optional[str]:
        """The absolute path of the mood file, or None for a shipped preset."""
        return os.path.abspath(self.mood) if self.mood.endswith(".json") else None

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# a setting's name where it differs from its field's: the CLI flag is "--" plus
# the name with "_" written as "-", and a config key is the name or the field's
SHORT_NAMES = {
    "rng_seed": "seed",
    "planner_mode": "mode",
    "merge_tolerance_s": "merge_tolerance",
    "loop_mode": "loop",
}


def load_config_file(path: str) -> dict:
    """Read a [pipeline] block in the plan INI dialect into a settings dict."""
    try:
        items = list(iter_ini(read_input(path, ConfigError, "config")))
    except PlanParseError as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    field_of = {short: name for name, short in SHORT_NAMES.items()}
    settings = {}
    for lineno, section, key, value in items:
        if key is None:
            if section != "pipeline":
                raise ConfigError(f"{path}:{lineno}: unknown block [{section}]")
            continue
        field = field_of.get(key, key)
        if field not in PipelineConfig.__dataclass_fields__:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        if field in settings:  # the other of its two names came first
            raise ConfigError(f"{path}:{lineno}: {key!r} sets {field}, which is already set")
        settings[field] = value
    return settings


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def apply_settings(config: PipelineConfig, settings: dict) -> PipelineConfig:
    """Set each given value, converted to the type of the field's default.
    A value holding a NUL is refused: no path or command can carry one."""
    for key, value in settings.items():
        if value is None:
            continue
        if isinstance(value, str) and "\0" in value:
            raise ConfigError(f"bad value for {key}: {value!r} holds a NUL character")
        kind = type(PipelineConfig.__dataclass_fields__[key].default)
        try:
            if kind is bool and isinstance(value, str):
                value = _BOOL_WORDS[value.lower()]
            elif kind in (int, float):
                value = kind(value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
        setattr(config, key, value)
    if config.planner_mode not in PLANNER_MODES:
        raise ConfigError(f"unknown planner mode {config.planner_mode!r}")
    if config.complexity not in COMPLEXITIES:
        raise ConfigError(f"unknown complexity {config.complexity!r}")
    return config


# -- the stage table -------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One stage, as its subcommand and ``run`` see it."""

    help: str
    function: str  # a stage_* name, looked up at each call so a wrapper set on it applies
    files: Tuple[str, ...]  # file flags without "--", in the function's argument order
    reads: Tuple[str, ...]  # config fields, or methods, naming other files it reads
    output: str  # default output name; "{ext}" is the first file's extension
    says: str  # what the CLI prints before " -> <path>"; "{}" takes analyze's count
    feeds: Optional[str] = None  # the file flag that takes its output later in ``run``
    requires: Tuple[str, ...] = ()  # a setting it cannot run without, and the error
    options: Tuple[Tuple[str, str], ...] = ()  # optional flags after -o, with their help

    def __call__(self, config: PipelineConfig, *args) -> Tuple[str, str]:
        """Run the stage; returns its output path and the line the CLI prints."""
        result = globals()[self.function](config, *args)
        path, *counts = result if isinstance(result, tuple) else (result,)
        return path, f"{self.says.format(*counts)} -> {path}"

    def check(self, config: PipelineConfig) -> None:
        """Refuse a config without the setting the stage requires, or whose
        command template does not split into words."""
        if not self.requires:
            return
        name, missing = self.requires
        value = getattr(config, name)
        if not value:
            raise ConfigError(missing)
        if name.endswith("_template"):
            try:
                shlex.split(value)
            except ValueError as exc:
                raise ConfigError(f"bad {name} {value!r}: {exc}") from exc


STAGES = {
    "analyze": Stage("detect scenes and write scenes.json", "stage_analyze", (), ("source",),
                     "scenes.json", "{} scenes", feeds="scenes",
                     requires=("source", "no source configured")),
    "plan": Stage("solve the section plan and write plan.ini", "stage_plan", ("scenes",),
                  ("detections", "mood_file"), "plan.ini", "plan", feeds="plan"),
    "compose": Stage("realize plan.ini as soundtrack.mid", "stage_compose", ("plan",),
                     ("melody", "instruments"), "soundtrack.mid", "soundtrack", feeds="midi",
                     options=(("dump-events", "also write a JSON event dump here"),)),
    "render": Stage("synthesize audio via the render template", "stage_render", ("midi",),
                    ("soundfont",), "soundtrack.wav", "audio", feeds="audio",
                    requires=("render_template", "no render command template configured")),
    "mux": Stage("attach audio to the video via the mux template", "stage_mux",
                 ("video", "audio"), ("soundfont",), "final{ext}", "video",
                 requires=("mux_template", "no mux command template configured")),
    "mix-loops": Stage("mix WAV stems over the scene list", "stage_mix_loops", ("scenes",),
                       ("stems",), "soundtrack.wav", "audio",
                       requires=("stems", "no stem manifest configured for loop mode")),
}


# -- stages ----------------------------------------------------------------------

def stage_analyze(config: PipelineConfig, out_path: Optional[str] = None) -> Tuple[str, int]:
    """Detect scenes and write the scene-list JSON; returns (path, count)."""
    STAGES["analyze"].check(config)
    source = open_frame_source(config.source, config.fps_pair())
    scenes = detect_scenes(
        stream_stats(source), source.total_frames, source.spec, config.detector_config()
    )
    path = out_path or config.out_path(STAGES["analyze"].output)
    fps = (source.spec.fps_num, source.spec.fps_den)
    with publish(path) as fh:
        fh.write(scenes_to_json(scenes, fps, source.total_frames))
    return path, len(scenes)


def stage_plan(
    config: PipelineConfig, scenes_path: str, out_path: Optional[str] = None
) -> str:
    """Energy analysis plus the duration solver; writes plan.ini."""
    text = read_input(scenes_path, MalformedSourceError, "scene list")
    scenes, fps, _total = scenes_from_json(text)
    # plan.ini records what compose hands to load_mood, so a mood file is
    # kept by its absolute path, not by the name inside it
    mood_ref = config.mood_file() or config.mood
    mood = load_mood(mood_ref)

    if config.detections:
        counts = load_detections(config.detections, scenes)
        by_scene = classify_energy(counts)
        labels = [by_scene[scene.id] for scene in scenes]
    else:
        labels = [EnergyLabel.MEDIUM] * len(scenes)  # neutral default
    slopes = choose_direction_slope(labels)

    durations = sections_from_scenes(scenes)
    tolerance = fit_tolerance(fps[1] / fps[0])
    fits = [enumerate_fits(duration, mood, tolerance) for duration in durations]
    for section_id, (duration, section_fits) in enumerate(zip(durations, fits)):
        if not section_fits:
            raise UnplannableSectionError(section_id, duration)

    bands = None  # global mode: one shared tempo
    if config.planner_mode == "per-scene-energy":
        bands = [assign_tempo_band(label, mood.tempo_range) for label in labels]
    fits = harmonize_tempo(fits, config.rng_seed, bands)

    plan = finalize_plan(durations, fits, labels, slopes, mood_ref, config.complexity,
                         config.rng_seed)
    path = out_path or config.out_path(STAGES["plan"].output)
    with publish(path) as fh:
        fh.write(plan_to_ini(plan))
    return path


def stage_compose(
    config: PipelineConfig,
    plan_path: str,
    out_path: Optional[str] = None,
    dump_events: Optional[str] = None,
) -> str:
    """Realize the plan as a single SMF; deterministic for a given config."""
    doc = parse_ini(read_input(plan_path, PlanParseError, "plan"))
    mood = load_mood(doc.mood)
    plan = resolve_plan(doc, mood)

    motif = None
    if config.melody:
        melody = read_input(config.melody, ConfigError, "melody", binary=True)
        motif = load_seed_melody(read_smf(melody))

    imap = (
        InstrumentMap.from_file(config.instruments)
        if config.instruments
        else InstrumentMap.default()
    )
    for layer in mood.instrument_layers:  # drum keys go to channel 9, and only they do
        drums = layer.label == PERCUSSION_LABEL
        if imap.is_percussion(layer.label) != drums:
            raise InvalidEventError(f"instrument map: {layer.label!r} must "
                                    f"{'' if drums else 'not '}map to \"percussion\"")
    score = compose_plan(plan, mood, motif)
    path = out_path or config.out_path(STAGES["compose"].output)
    # a dump is written first and renamed after the MIDI file, so a failure
    # while writing either file replaces neither
    with publish_after(dump_events, score_debug_dump(score)) if dump_events else nullcontext():
        with publish(path, binary=True) as fh:
            fh.write(write_smf(score, imap))
    return path


def _fill(token: str, values: dict) -> str:
    """``token`` with each ``{name}`` replaced by its value, in one pass: a
    value that holds a placeholder is not replaced again, and a name with no
    value is left as written."""
    return re.sub(r"\{(\w+)\}", lambda m: values.get(m.group(1), m.group(0)), token)


def _run_template(template: str, substitutions: dict, out_path: str, what: str) -> None:
    """Run the tool with ``{out}`` set to a temp path beside ``out_path`` that
    keeps its extension (tools pick the file type from it), then publish it."""
    root, ext = os.path.splitext(out_path)
    tmp = root + ".tmp" + ext
    tokens = [_fill(token, dict(substitutions, out=tmp)) for token in shlex.split(template)]
    with staged(out_path, tmp):
        try:
            proc = subprocess.run(tokens, capture_output=True, text=True)
        except OSError as exc:
            raise ExternalToolError(f"{what} command failed to start: {exc}") from exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
            raise ExternalToolError(
                f"{what} command exited {proc.returncode}: {' | '.join(tail)}"
            )
        if not os.path.exists(tmp) or os.path.getsize(tmp) == 0:
            raise ExternalToolError(f"{what} command produced no output at {tmp}")


def stage_render(
    config: PipelineConfig, midi_path: str, out_path: Optional[str] = None
) -> str:
    STAGES["render"].check(config)
    path = out_path or config.out_path(STAGES["render"].output)
    _run_template(
        config.render_template,
        {"in": midi_path, "soundfont": config.soundfont or ""},
        path,
        "render",
    )
    return path


def stage_mux(
    config: PipelineConfig, video_path: str, audio_path: str, out_path: Optional[str] = None
) -> str:
    STAGES["mux"].check(config)
    ext = os.path.splitext(video_path)[1]
    path = out_path or config.out_path(STAGES["mux"].output.format(ext=ext))
    _run_template(
        config.mux_template,
        {"in": video_path, "audio": audio_path, "soundfont": config.soundfont or ""},
        path,
        "mux",
    )
    return path


def stage_mix_loops(
    config: PipelineConfig, scenes_path: str, out_path: Optional[str] = None
) -> str:
    STAGES["mix-loops"].check(config)
    text = read_input(scenes_path, MalformedSourceError, "scene list")
    scenes, _fps, _total = scenes_from_json(text)
    stems = load_stem_manifest(config.stems)
    schedule = build_layer_schedule(scenes, stems)
    track = mix_stems(schedule, scenes, stems)
    path = out_path or config.out_path(STAGES["mix-loops"].output)
    write_wav(path, track, stems[0].sample_rate)
    return path


def cmd_run(config: PipelineConfig) -> dict:
    """Chain the stages and write the run manifest; returns the manifest."""
    if config.loop_mode:
        chain = ["analyze", "mix-loops"]
    else:
        chain = ["analyze", "plan", "compose"]
        if config.render_template:
            chain += ["render", "mux"] if config.mux_template else ["render"]
    for name in chain:  # refuse before analyze writes scenes.json
        STAGES[name].check(config)

    # a run that fails part way must not leave the last run's manifest
    # describing files it has since replaced
    manifest_path = os.path.join(config.output_dir, "run_manifest.json")
    try:
        os.remove(manifest_path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ConfigError(f"cannot remove {manifest_path}: {exc}") from exc

    stages: List[dict] = []
    files = {"video": config.source}  # file flag -> the path run hands it
    for name in chain:
        stage = STAGES[name]
        args = [files[flag] for flag in stage.files]
        started = time.perf_counter()
        final_path = stage(config, *args)[0]
        ms = round((time.perf_counter() - started) * 1000.0, 3)
        read = [getattr(config, setting) for setting in stage.reads]
        inputs = [p for p in args + [r() if callable(r) else r for r in read] if p]
        stages.append({"name": name, "inputs": inputs,
                       "outputs": [artifact_record(final_path)], "ms": ms})
        files[stage.feeds] = final_path

    manifest = {
        "config_hash": config.config_hash(),
        "tool_versions": {
            "python": sys.version.split()[0],
            "vidscore": __version__,
            "frame_stats": stats_path(),  # which per-frame loop analyze ran
        },
        "stages": stages,
        "final_output": final_path,
    }
    with publish(manifest_path) as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
