"""Command line entry point.

One subcommand per pipeline stage, built from ``pipeline.STAGES``: its file
flags, its ``-o`` default and the line it prints come from the stage's
entry there. ``run`` chains the stages. Settings come
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
from .pipeline import (SHORT_NAMES, STAGES, PipelineConfig, apply_settings, cmd_run,
                       load_config_file)


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

    # a file flag's help names the stage whose output run hands it
    made_by = {stage.feeds: f"{stage.output} from {name}"
               for name, stage in STAGES.items() if stage.feeds}
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        dests = [p.add_argument("--" + flag, required=True, help=made_by.get(flag)).dest
                 for flag in stage.files]
        default = stage.output.format(ext="<video extension>")
        p.add_argument("-o", "--out", help=f"output path (default: <outdir>/{default})")
        dests.append("out")
        dests += [p.add_argument("--" + flag, help=text).dest for flag, text in stage.options]
        p.set_defaults(run=lambda c, a, stage=stage, dests=dests:
                       stage(c, *(getattr(a, dest) for dest in dests))[1])

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
