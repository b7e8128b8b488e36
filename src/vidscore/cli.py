"""Command line entry point.

Subcommands mirror the pipeline stages; ``run`` chains them. Settings come
from built-in defaults, then a config file ([pipeline] block, same INI
dialect as plans), then the VIDSCORE_OUTPUT_DIR environment variable, then
command line flags, later sources winning. Each ``PipelineConfig`` field is
one setting. A config key is the flag's name without the dashes, with ``-``
written as ``_``; the field name also works (``--seed``: ``seed`` or
``rng_seed``).

Exit codes: 0 success, 2 source problems, 3 planning problems, 4 composition
or MIDI problems, 5 external tool failures, 6 configuration problems. A
command line argparse cannot parse (a missing or unknown flag, a flag with no
value) is a configuration problem and exits 6; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Optional

from .errors import ConfigError, VidscoreError
from .pipeline import (
    SHORT_NAMES,
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


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the configuration code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ConfigError.exit_code, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file with a [pipeline] block")
    for field in fields(PipelineConfig):
        flag = "--" + SHORT_NAMES.get(field.name, field.name).replace("_", "-")
        if type(field.default) is bool:
            parser.add_argument(flag, dest=field.name, action="store_const", const=True)
        else:
            parser.add_argument(flag, dest=field.name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vidscore",
        description="Compose a picture-synched soundtrack for a silent video.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect scenes and write scenes.json")
    p.add_argument("-o", "--out", help="output path (default: <outdir>/scenes.json)")
    p.set_defaults(run=lambda c, a: "{1} scenes -> {0}".format(*stage_analyze(c, a.out)))

    p = sub.add_parser("plan", help="solve the section plan and write plan.ini")
    p.add_argument("--scenes", required=True, help="scenes.json from analyze")
    p.add_argument("-o", "--out", help="output path (default: <outdir>/plan.ini)")
    p.set_defaults(run=lambda c, a: f"plan -> {stage_plan(c, a.scenes, a.out)}")

    p = sub.add_parser("compose", help="realize plan.ini as soundtrack.mid")
    p.add_argument("--plan", required=True, help="plan.ini from plan")
    p.add_argument("-o", "--out", help="output path (default: <outdir>/soundtrack.mid)")
    p.add_argument("--dump-events", help="also write a JSON event dump here")
    p.set_defaults(run=lambda c, a: "soundtrack -> "
                   + stage_compose(c, a.plan, a.out, a.dump_events))

    p = sub.add_parser("render", help="synthesize audio via the render template")
    p.add_argument("--midi", required=True)
    p.add_argument("-o", "--out", help="output path (default: <outdir>/soundtrack.wav)")
    p.set_defaults(run=lambda c, a: f"audio -> {stage_render(c, a.midi, a.out)}")

    p = sub.add_parser("mux", help="attach audio to the video via the mux template")
    p.add_argument("--video", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(run=lambda c, a: f"video -> {stage_mux(c, a.video, a.audio, a.out)}")

    p = sub.add_parser("mix-loops", help="mix WAV stems over the scene list")
    p.add_argument("--scenes", required=True)
    p.add_argument("-o", "--out", help="output path (default: <outdir>/soundtrack.wav)")
    p.set_defaults(run=lambda c, a: f"audio -> {stage_mix_loops(c, a.scenes, a.out)}")

    p = sub.add_parser("run", help="run the full pipeline and write a manifest")
    p.set_defaults(run=lambda c, a: f"done -> {cmd_run(c)['final_output']}")

    for p in sub.choices.values():
        _add_common(p)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        apply_settings(config, load_config_file(args.config))
    env_outdir = os.environ.get("VIDSCORE_OUTPUT_DIR")
    if env_outdir:
        config.output_dir = env_outdir
    flags = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    return apply_settings(config, flags)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(args.run(resolve_config(args), args))
    except VidscoreError as exc:
        print(f"vidscore {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
