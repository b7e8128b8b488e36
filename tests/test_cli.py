"""The command line surface: every subcommand's option strings and the config
key spellings that reach each setting, pinned as explicit lists."""

import argparse

import pytest

from vidscore import cli
from vidscore.pipeline import PipelineConfig

SETTING_OPTIONS = [
    "--complexity", "--config", "--cut-threshold", "--detections", "--fade-threshold",
    "--fps", "--help", "--instruments", "--loop", "--melody", "--merge-tolerance",
    "--min-scene-frames", "--mode", "--mood", "--mux-template", "--output-dir",
    "--render-template", "--seed", "--soundfont", "--source", "--stems", "-h",
]

OWN_OPTIONS = {
    "analyze": ["--out", "-o"],
    "plan": ["--out", "--scenes", "-o"],
    "compose": ["--dump-events", "--out", "--plan", "-o"],
    "render": ["--midi", "--out", "-o"],
    "mux": ["--audio", "--out", "--video", "-o"],
    "mix-loops": ["--out", "--scenes", "-o"],
    "run": [],
}

# field -> (flag, config spellings, a value that is not the default)
SPELLINGS = {
    "source": ("--source", ["source"], "clip.rgb24"),
    "fps": ("--fps", ["fps"], "25"),
    "fade_threshold": ("--fade-threshold", ["fade_threshold"], 9.5),
    "cut_threshold": ("--cut-threshold", ["cut_threshold"], 41.0),
    "min_scene_frames": ("--min-scene-frames", ["min_scene_frames"], 8),
    "merge_tolerance_s": ("--merge-tolerance", ["merge_tolerance", "merge_tolerance_s"], 0.25),
    "mood": ("--mood", ["mood"], "drive"),
    "complexity": ("--complexity", ["complexity"], "simple"),
    "planner_mode": ("--mode", ["mode", "planner_mode"], "per-scene-energy"),
    "rng_seed": ("--seed", ["seed", "rng_seed"], 7),
    "detections": ("--detections", ["detections"], "det.json"),
    "melody": ("--melody", ["melody"], "motif.mid"),
    "instruments": ("--instruments", ["instruments"], "imap.json"),
    "render_template": ("--render-template", ["render_template"], "synth {in} {out}"),
    "mux_template": ("--mux-template", ["mux_template"], "mux {in} {audio} {out}"),
    "soundfont": ("--soundfont", ["soundfont"], "gm.sf2"),
    "stems": ("--stems", ["stems"], "stems.json"),
    "loop_mode": ("--loop", ["loop", "loop_mode"], True),
    "output_dir": ("--output-dir", ["output_dir"], "outdir"),
}


def option_strings(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: sorted(s for a in p._actions for s in a.option_strings)
            for name, p in sub.choices.items()}


def changed_fields(config):
    default = PipelineConfig()
    return {key: value for key, value in vars(config).items()
            if value != getattr(default, key)}


def test_every_subcommand_keeps_its_option_strings():
    assert option_strings(cli.build_parser()) == {
        name: sorted(SETTING_OPTIONS + own) for name, own in OWN_OPTIONS.items()
    }


def test_every_setting_is_pinned():
    assert sorted(SPELLINGS) == sorted(PipelineConfig.__dataclass_fields__)


@pytest.mark.parametrize("field", sorted(SPELLINGS))
def test_flag_and_config_keys_land_on_the_same_field(tmp_path, monkeypatch, field):
    monkeypatch.delenv("VIDSCORE_OUTPUT_DIR", raising=False)
    flag, keys, value = SPELLINGS[field]
    argv = ["run", flag] if value is True else ["run", flag, str(value)]
    from_flag = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert changed_fields(from_flag) == {field: value}
    for key in keys:
        cfg = tmp_path / f"{key}.ini"
        cfg.write_text(f"[pipeline]\n{key} = {'yes' if value is True else value}\n")
        args = cli.build_parser().parse_args(["run", "--config", str(cfg)])
        assert changed_fields(cli.resolve_config(args)) == {field: value}, key


@pytest.mark.parametrize("key", ["render", "mux"])
def test_config_keys_no_flag_is_spelled_as_exit_6(tmp_path, capsys, key):
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text(f"[pipeline]\n{key} = tool {{in}} {{out}}\n")
    assert cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 6
    assert f"unknown setting {key!r}" in capsys.readouterr().err
