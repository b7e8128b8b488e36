"""Command line entry point.

Subcommands mirror the pipeline stages; ``run`` chains them. Settings come
from built-in defaults, then a config file ([pipeline] block, same INI
dialect as plans), then the VIDSCORE_OUTPUT_DIR environment variable, then
command line flags, later sources winning.

Exit codes: 0 success, 2 source problems, 3 planning problems, 4 composition
or MIDI problems, 5 external tool failures, 6 configuration problems. A
command line argparse cannot parse (a missing or unknown flag, a flag with no
value) is a configuration problem and exits 6; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import ConfigError, VidscoreError
from .pipeline import (
    PipelineConfig,
    apply_settings,
    cmd_run,
    load_config_file,
    stage_analyze,
    stage_compose,
    stage_mix_loops,
    stage_mux,
    stage_plan,
    stage_render,
)

_SETTING_FLAGS = {
    "source": "--source",
    "fps": "--fps",
    "fade_threshold": "--fade-threshold",
    "cut_threshold": "--cut-threshold",
    "min_scene_frames": "--min-scene-frames",
    "merge_tolerance_s": "--merge-tolerance",
    "mood": "--mood",
    "complexity": "--complexity",
    "planner_mode": "--mode",
    "rng_seed": "--seed",
    "detections": "--detections",
    "melody": "--melody",
    "instruments": "--instruments",
    "render_template": "--render-template",
    "mux_template": "--mux-template",
    "soundfont": "--soundfont",
    "stems": "--stems",
    "output_dir": "--output-dir",
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the configuration code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ConfigError.exit_code, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file with a [pipeline] block")
    for key, flag in _SETTING_FLAGS.items():
        parser.add_argument(flag, dest=key, default=None)
    parser.add_argument(
        "--loop", dest="loop_mode", action="store_const", const=True, default=None,
        help="use the loop-based sequencer instead of the composer",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vidscore",
        description="Compose a picture-synched soundtrack for a silent video.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect scenes and write scenes.json")
    p.add_argument("-o", "--out", help="output path (default: <outdir>/scenes.json)")
    _add_common(p)

    p = sub.add_parser("plan", help="solve the section plan and write plan.ini")
    p.add_argument("--scenes", required=True, help="scenes.json from analyze")
    p.add_argument("-o", "--out", help="output path (default: <outdir>/plan.ini)")
    _add_common(p)

    p = sub.add_parser("compose", help="realize plan.ini as soundtrack.mid")
    p.add_argument("--plan", required=True, help="plan.ini from plan")
    p.add_argument("-o", "--out", help="output path (default: <outdir>/soundtrack.mid)")
    p.add_argument("--dump-events", help="also write a JSON event dump here")
    _add_common(p)

    p = sub.add_parser("render", help="synthesize audio via the render template")
    p.add_argument("--midi", required=True)
    p.add_argument("-o", "--out", help="output path (default: <outdir>/soundtrack.wav)")
    _add_common(p)

    p = sub.add_parser("mux", help="attach audio to the video via the mux template")
    p.add_argument("--video", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("-o", "--out")
    _add_common(p)

    p = sub.add_parser("mix-loops", help="mix WAV stems over the scene list")
    p.add_argument("--scenes", required=True)
    p.add_argument("-o", "--out", help="output path (default: <outdir>/soundtrack.wav)")
    _add_common(p)

    p = sub.add_parser("run", help="run the full pipeline and write a manifest")
    _add_common(p)

    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        apply_settings(config, load_config_file(args.config))
    env_outdir = os.environ.get("VIDSCORE_OUTPUT_DIR")
    if env_outdir:
        config.output_dir = env_outdir
    flags = {
        key: getattr(args, key)
        for key in list(_SETTING_FLAGS) + ["loop_mode"]
        if getattr(args, key, None) is not None
    }
    return apply_settings(config, flags)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "analyze":
            path, count = stage_analyze(config, args.out)
            print(f"{count} scenes -> {path}")
        elif args.command == "plan":
            path = stage_plan(config, args.scenes, args.out)
            print(f"plan -> {path}")
        elif args.command == "compose":
            path = stage_compose(config, args.plan, args.out, args.dump_events)
            print(f"soundtrack -> {path}")
        elif args.command == "render":
            path = stage_render(config, args.midi, args.out)
            print(f"audio -> {path}")
        elif args.command == "mux":
            path = stage_mux(config, args.video, args.audio, args.out)
            print(f"video -> {path}")
        elif args.command == "mix-loops":
            path = stage_mix_loops(config, args.scenes, args.out)
            print(f"audio -> {path}")
        elif args.command == "run":
            manifest = cmd_run(config)
            print(f"done -> {manifest['final_output']}")
    except VidscoreError as exc:
        print(f"vidscore {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
