"""Each stage subcommand through ``cli.main``: the one line it prints, the
default output it names there, and the flags it cannot run without."""

import argparse
import json
import sys

import numpy as np
import pytest

from vidscore import cli

from conftest import CUT_SAFE_COLORS, VideoBuilder, write_wave

PY = sys.executable
COPY = f'{PY} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
CONCAT = (f'{PY} -c "import sys,pathlib; pathlib.Path(sys.argv[3]).write_bytes('
          f'pathlib.Path(sys.argv[1]).read_bytes() + pathlib.Path(sys.argv[2]).read_bytes())"')

REQUIRED = {
    "analyze": [],
    "plan": ["--scenes"],
    "compose": ["--plan"],
    "render": ["--midi"],
    "mux": ["--audio", "--video"],
    "mix-loops": ["--scenes"],
    "run": [],
}

OUT_HELP = {
    "analyze": "output path (default: <outdir>/scenes.json)",
    "plan": "output path (default: <outdir>/plan.ini)",
    "compose": "output path (default: <outdir>/soundtrack.mid)",
    "render": "output path (default: <outdir>/soundtrack.wav)",
    "mux": "output path (default: <outdir>/final<video extension>)",
    "mix-loops": "output path (default: <outdir>/soundtrack.wav)",
}


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    """Two 15 s scenes at 30 fps, and a stem manifest of one 1 s tone."""
    directory = tmp_path_factory.mktemp("clip")
    builder = VideoBuilder(width=64, height=36, fps=(30, 1))
    for color in CUT_SAFE_COLORS[:2]:
        builder.add_run(color, 450)
    rate = 8000
    write_wave(str(directory / "tone.wav"), (np.ones(rate) * 3000).astype(np.int16), rate)
    stems = directory / "stems.json"
    stems.write_text(json.dumps([{"label": "a", "path": "tone.wav", "activation_rank": 1}]))
    return builder.write(directory), str(stems)


def printed(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_each_stage_prints_its_default_output(clip, tmp_path, capsys):
    video, stems = clip
    common = ["--output-dir", str(tmp_path)]
    scenes, plan, midi, wav = (str(tmp_path / name) for name in
                               ("scenes.json", "plan.ini", "soundtrack.mid", "soundtrack.wav"))
    assert printed(capsys, ["analyze", "--source", video] + common) == [f"2 scenes -> {scenes}"]
    assert printed(capsys, ["plan", "--scenes", scenes] + common) == [f"plan -> {plan}"]
    assert printed(capsys, ["compose", "--plan", plan] + common) == [f"soundtrack -> {midi}"]
    assert printed(capsys, ["render", "--midi", midi, "--render-template",
                            COPY + " {in} {out}"] + common) == [f"audio -> {wav}"]
    assert printed(capsys, ["mux", "--video", video, "--audio", wav, "--mux-template",
                            CONCAT + " {in} {audio} {out}"] + common) == [
        f"video -> {tmp_path / 'final.rgb24'}"]
    loop_dir = str(tmp_path / "loop")
    assert printed(capsys, ["mix-loops", "--scenes", scenes, "--stems", stems,
                            "--output-dir", loop_dir]) == [f"audio -> {loop_dir}/soundtrack.wav"]
    run_dir = str(tmp_path / "run")
    assert printed(capsys, ["run", "--source", video, "--output-dir", run_dir]) == [
        f"done -> {run_dir}/soundtrack.mid"]


def test_each_stage_prints_the_output_it_was_given(clip, tmp_path, capsys):
    video, stems = clip
    common = ["--output-dir", str(tmp_path / "unused")]
    out = {name: str(tmp_path / name) for name in
           ("s.json", "p.ini", "s.mid", "s.wav", "v.bin", "loop.wav")}
    assert printed(capsys, ["analyze", "--source", video, "-o", out["s.json"]] + common) == [
        f"2 scenes -> {out['s.json']}"]
    assert printed(capsys, ["plan", "--scenes", out["s.json"], "-o", out["p.ini"]]
                   + common) == [f"plan -> {out['p.ini']}"]
    assert printed(capsys, ["compose", "--plan", out["p.ini"], "--out", out["s.mid"]]
                   + common) == [f"soundtrack -> {out['s.mid']}"]
    assert printed(capsys, ["render", "--midi", out["s.mid"], "-o", out["s.wav"],
                            "--render-template", COPY + " {in} {out}"] + common) == [
        f"audio -> {out['s.wav']}"]
    assert printed(capsys, ["mux", "--video", video, "--audio", out["s.wav"], "-o", out["v.bin"],
                            "--mux-template", CONCAT + " {in} {audio} {out}"] + common) == [
        f"video -> {out['v.bin']}"]
    assert printed(capsys, ["mix-loops", "--scenes", out["s.json"], "--stems", stems,
                            "-o", out["loop.wav"]] + common) == [f"audio -> {out['loop.wav']}"]
    assert not (tmp_path / "unused").exists()


def subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def required_options(parser):
    return {name: sorted(s for a in p._actions if a.required for s in a.option_strings)
            for name, p in subparsers(parser).items()}


def test_every_subcommand_keeps_its_required_flags():
    assert required_options(cli.build_parser()) == REQUIRED


def test_every_output_flag_names_its_default():
    helps = {name: [a.help for a in p._actions if "-o" in a.option_strings]
             for name, p in subparsers(cli.build_parser()).items()}
    assert helps == {name: [OUT_HELP[name]] if name in OUT_HELP else [] for name in REQUIRED}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in REQUIRED.items() for flag in flags])
def test_leaving_out_a_required_flag_exits_6(tmp_path, capsys, command, flag):
    argv = [command] + [part for other in REQUIRED[command] if other != flag
                        for part in (other, str(tmp_path / "in"))]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--output-dir", str(tmp_path)])
    assert info.value.code == 6
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
