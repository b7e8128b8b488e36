import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vidscore
from vidscore import cli, frames, pipeline, planner
from vidscore.composer import compose_plan
from vidscore.energy import classify_energy
from vidscore.errors import ConfigError, InvalidEventError
from vidscore.midi import InstrumentMap, read_smf, write_smf
from vidscore.moods import load_mood
from vidscore.pipeline import (
    PipelineConfig,
    cmd_run,
    stage_analyze,
    stage_compose,
    stage_mux,
    stage_plan,
    stage_render,
)
from vidscore.planner import parse_ini, resolve_plan
from vidscore.scenes import scenes_from_json

from conftest import CUT_SAFE_COLORS, VideoBuilder, doc_tempos, write_wave

PY = sys.executable
SRC = os.path.dirname(os.path.dirname(vidscore.__file__))


@pytest.fixture(scope="module")
def quad_video(tmp_path_factory):
    """Four 15 s scenes at 30 fps; every cut is far above threshold and every
    15.0 s section has whole-phrase fits."""
    directory = tmp_path_factory.mktemp("quadvid")
    builder = VideoBuilder(width=64, height=36, fps=(30, 1))
    for color in CUT_SAFE_COLORS[:4]:
        builder.add_run(color, 450)
    path = builder.write(directory)
    return directory, path


@pytest.fixture(scope="module")
def analyzed(quad_video):
    directory, path = quad_video
    config = PipelineConfig(source=path, output_dir=str(directory))
    scenes_path, count = stage_analyze(config)
    assert count == 4
    return directory, path, scenes_path


class TestAnalyze:
    def test_single_cut_fixture(self, tmp_path):
        builder = VideoBuilder()
        builder.add_run(CUT_SAFE_COLORS[0], 150).add_run(CUT_SAFE_COLORS[1], 150)
        source = builder.write(tmp_path)
        config = PipelineConfig(source=source, output_dir=str(tmp_path))
        scenes_path, count = stage_analyze(config)
        assert count == 2
        scenes, fps, total = scenes_from_json(open(scenes_path).read())
        assert total == 300
        assert [s.start_frame for s in scenes] == [0, 150]

    def test_unreadable_source_exits_2(self, tmp_path, capsys):
        code = cli.main(["analyze", "--source", str(tmp_path / "nope.rgb24"),
                         "--output-dir", str(tmp_path)])
        assert code == 2

    def test_zero_frame_stream_exits_2(self, tmp_path):
        (tmp_path / "empty.rgb24").write_bytes(b"")
        (tmp_path / "empty.hdr").write_text("width=4 height=4 fps_num=30 fps_den=1\n")
        code = cli.main(["analyze", "--source", str(tmp_path / "empty.rgb24"),
                         "--output-dir", str(tmp_path)])
        assert code == 2

    def test_a_frame_of_2_to_the_30_pixels_exits_2(self, tmp_path, capsys):
        # the int64 sum of a frame's hue changes holds fewer pixels
        (tmp_path / "huge.rgb24").write_bytes(b"")
        (tmp_path / "huge.hdr").write_text("width=32768 height=32768 fps_num=30 fps_den=1\n")
        code = cli.main(["analyze", "--source", str(tmp_path / "huge.rgb24"),
                         "--output-dir", str(tmp_path)])
        assert code == 2
        assert "frame size 32768x32768 is 2**30 pixels or more" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        "width=1_2 height=8 fps_num=30 fps_den=1",
        "width=+12 height=8 fps_num=30 fps_den=1",
        "width=\uff11\uff12 height=8 fps_num=30 fps_den=1",
        b"P6\n1_2 +8\n255\n",
        b"P6\n12 8\n2_55\n",
    ], ids=["underscore", "plus sign", "full-width digits", "PPM size", "PPM maxval"])
    def test_a_header_number_not_in_ascii_digits_exits_2(self, tmp_path, capsys, header):
        # int() reads each of these as 12x8 with maxval 255
        pixels = bytes(2 * 3 * 12 * 8)
        if isinstance(header, bytes):
            (tmp_path / "clip").mkdir()
            for i in range(2):
                (tmp_path / "clip" / f"{i:04d}.ppm").write_bytes(header + pixels[: 3 * 12 * 8])
            source = ["--source", str(tmp_path / "clip"), "--fps", "30"]
        else:
            (tmp_path / "clip.rgb24").write_bytes(pixels)
            (tmp_path / "clip.hdr").write_text(header + "\n", encoding="utf-8")
            source = ["--source", str(tmp_path / "clip.rgb24")]
        out = tmp_path / "out"
        assert cli.main(["analyze", *source, "--output-dir", str(out)]) == 2
        assert "is not a decimal number" in capsys.readouterr().err
        assert not (out / "scenes.json").exists()

    def test_cli_prints_scene_count(self, tmp_path, capsys):
        builder = VideoBuilder().add_run(CUT_SAFE_COLORS[0], 60)
        source = builder.write(tmp_path)
        code = cli.main(["analyze", "--source", source, "--output-dir", str(tmp_path)])
        assert code == 0
        assert "1 scene" in capsys.readouterr().out

    def test_cli_prints_one_line_from_a_subprocess(self, tmp_path):
        # analyze prints its one summary line and nothing else, also when
        # its frame statistics run in worker threads
        builder = VideoBuilder().add_run(CUT_SAFE_COLORS[0], 60).add_run(CUT_SAFE_COLORS[1], 60)
        source = builder.write(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run(
            [PY, "-m", "vidscore.cli", "analyze", "--source", source,
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [f"2 scenes -> {tmp_path / 'scenes.json'}"]


class TestPlan:
    def test_defaults_to_all_medium(self, analyzed):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(directory), rng_seed=5)
        plan_path = stage_plan(config, scenes_path)
        doc = parse_ini(open(plan_path).read())
        assert [e.energy.value for e in doc.entries] == ["medium"] * 4

    def test_detections_flow_into_energies(self, analyzed, tmp_path):
        directory, _, scenes_path = analyzed
        detections = tmp_path / "det.json"
        counts = {0: 0, 1: 5, 2: 10, 3: 5}
        detections.write_text(json.dumps({"per_scene": {str(k): v for k, v in counts.items()}}))
        config = PipelineConfig(
            output_dir=str(tmp_path), detections=str(detections), rng_seed=5,
            planner_mode="per-scene-energy",
        )
        plan_path = stage_plan(config, scenes_path)
        doc = parse_ini(open(plan_path).read())
        expected = classify_energy(counts)
        assert [e.energy for e in doc.entries] == [expected[i] for i in range(4)]

    def test_global_mode_single_tempo(self, analyzed):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(directory), rng_seed=9)
        doc = parse_ini(open(stage_plan(config, scenes_path)).read())
        assert len({e.tempo for e in doc.entries}) == 1

    def test_unplannable_short_scene_exits_3(self, tmp_path):
        builder = VideoBuilder().add_run(CUT_SAFE_COLORS[0], 6)  # 0.2 s video
        source = builder.write(tmp_path)
        outdir = str(tmp_path)
        assert cli.main(["analyze", "--source", source, "--output-dir", outdir]) == 0
        code = cli.main(["plan", "--scenes", os.path.join(outdir, "scenes.json"),
                         "--output-dir", outdir])
        assert code == 3

    def test_malformed_scenes_json_fails(self, tmp_path):
        bad = tmp_path / "scenes.json"
        bad.write_text("{}")
        code = cli.main(["plan", "--scenes", str(bad), "--output-dir", str(tmp_path)])
        assert code == 2


class TestCompose:
    def test_same_seed_byte_identical(self, analyzed, tmp_path):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(tmp_path), rng_seed=77)
        plan_path = stage_plan(config, scenes_path)
        out = str(tmp_path / "a.mid")
        again = str(tmp_path / "b.mid")
        assert cli.main(["compose", "--plan", plan_path, "-o", out,
                         "--output-dir", str(tmp_path)]) == 0
        assert cli.main(["compose", "--plan", plan_path, "-o", again,
                         "--output-dir", str(tmp_path)]) == 0
        assert open(out, "rb").read() == open(again, "rb").read()

    def test_malformed_plan_exits_3(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text("[composition]\nduration ten\n")
        code = cli.main(["compose", "--plan", str(plan), "--output-dir", str(tmp_path)])
        assert code == 3

    def test_missing_instrument_exits_4(self, analyzed, tmp_path):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(tmp_path), rng_seed=1)
        plan_path = stage_plan(config, scenes_path)
        imap = tmp_path / "imap.json"
        imap.write_text('{"piano": 0}')
        code = cli.main(["compose", "--plan", plan_path, "--instruments", str(imap),
                         "--output-dir", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("mood, relabel, entries", [
        ("drive", None, {"percussion": 0}),  # drum keys on a piano channel
        (None, "drums", {"drums": "percussion"}),  # chords on the drum channel
    ], ids=["percussion mapped to a program", "a pitched layer mapped to percussion"])
    def test_percussion_map_that_disagrees_with_the_composer_exits_4(
        self, analyzed, tmp_path, capsys, mood, relabel, entries
    ):
        _, _, scenes_path = analyzed
        if relabel:
            layers = inspire_with()["instrument_layers"]
            layers[0]["label"] = relabel
            mood = str(tmp_path / "custom.json")
            Path(mood).write_text(json.dumps(inspire_with(instrument_layers=layers)))
        plan_path = stage_plan(PipelineConfig(output_dir=str(tmp_path), mood=mood, rng_seed=1),
                               scenes_path)
        imap = tmp_path / "imap.json"
        default = json.loads((Path(SRC) / "vidscore/data/instruments.json").read_text())
        imap.write_text(json.dumps(default | entries))
        code = cli.main(["compose", "--plan", plan_path, "--instruments", str(imap),
                         "--output-dir", str(tmp_path)])
        assert code == 4
        assert "percussion" in capsys.readouterr().err
        assert not (tmp_path / "soundtrack.mid").exists()

    def test_missing_instrument_map_exits_6(self, analyzed, tmp_path):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(tmp_path), rng_seed=1)
        plan_path = stage_plan(config, scenes_path)
        code = cli.main(["compose", "--plan", plan_path,
                         "--instruments", str(tmp_path / "missing.json"),
                         "--output-dir", str(tmp_path)])
        assert code == 6

    def test_event_dump(self, analyzed, tmp_path):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(tmp_path), rng_seed=1)
        plan_path = stage_plan(config, scenes_path)
        dump = tmp_path / "events.json"
        code = cli.main(["compose", "--plan", plan_path,
                         "--dump-events", str(dump), "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads(dump.read_text())
        assert len(doc["sections"]) == 4
        assert any(events for events in doc["sections"][0]["events"].values())

    def test_dump_that_cannot_be_written_keeps_the_previous_midi(self, analyzed, tmp_path):
        _, _, scenes_path = analyzed
        midi = tmp_path / "soundtrack.mid"
        assert cli.main(["plan", "--scenes", scenes_path, "-o", str(tmp_path / "plan.ini"),
                         "--output-dir", str(tmp_path)]) == 0
        assert cli.main(["compose", "--plan", str(tmp_path / "plan.ini"), "-o", str(midi),
                         "--output-dir", str(tmp_path)]) == 0
        assert cli.main(["plan", "--scenes", scenes_path, "--mood", "noir",
                         "-o", str(tmp_path / "plan2.ini"), "--output-dir", str(tmp_path)]) == 0
        before = midi.read_bytes()
        assert cli.main(["compose", "--plan", str(tmp_path / "plan2.ini"), "-o", str(midi),
                         "--dump-events", str(tmp_path / "missing" / "ev.json"),
                         "--output-dir", str(tmp_path)]) == 6
        assert midi.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        # the same compose with a dump it can write does replace the MIDI file
        assert cli.main(["compose", "--plan", str(tmp_path / "plan2.ini"), "-o", str(midi),
                         "--dump-events", str(tmp_path / "ev.json"),
                         "--output-dir", str(tmp_path)]) == 0
        assert midi.read_bytes() != before
        assert json.loads((tmp_path / "ev.json").read_text())["sections"]


class TestExternalTools:
    def test_render_template_substitution(self, analyzed, tmp_path):
        directory, _, scenes_path = analyzed
        config = PipelineConfig(output_dir=str(tmp_path), rng_seed=2)
        plan_path = stage_plan(config, scenes_path)
        assert cli.main(["compose", "--plan", plan_path, "-o",
                         str(tmp_path / "s.mid"), "--output-dir", str(tmp_path)]) == 0
        template = f'{PY} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])" {{in}} {{out}}'
        code = cli.main(["render", "--midi", str(tmp_path / "s.mid"),
                         "-o", str(tmp_path / "s.wav"),
                         "--render-template", template, "--output-dir", str(tmp_path)])
        assert code == 0
        assert open(tmp_path / "s.wav", "rb").read() == open(tmp_path / "s.mid", "rb").read()

    def test_child_failure_exits_5(self, tmp_path):
        (tmp_path / "in.mid").write_bytes(b"x")
        template = f'{PY} -c "import sys; sys.exit(1)" {{in}} {{out}}'
        code = cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                         "-o", str(tmp_path / "out.wav"),
                         "--render-template", template, "--output-dir", str(tmp_path)])
        assert code == 5

    def test_missing_output_exits_5(self, tmp_path):
        (tmp_path / "in.mid").write_bytes(b"x")
        template = f'{PY} -c "pass" {{in}} {{out}}'
        code = cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                         "-o", str(tmp_path / "out.wav"),
                         "--render-template", template, "--output-dir", str(tmp_path)])
        assert code == 5

    def test_failed_render_keeps_previous_output(self, tmp_path):
        (tmp_path / "in.mid").write_bytes(b"x")
        (tmp_path / "part.wav").write_bytes(b"previous render")
        template = (f'{PY} -c "import sys,pathlib; '
                    f"pathlib.Path(sys.argv[1]).write_text('half'); sys.exit(1)\" {{out}}")
        code = cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                         "-o", str(tmp_path / "part.wav"),
                         "--render-template", template, "--output-dir", str(tmp_path)])
        assert code == 5
        assert (tmp_path / "part.wav").read_bytes() == b"previous render"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mid", "part.wav"]

    def test_tool_writes_a_temp_path_with_the_target_extension(self, tmp_path):
        (tmp_path / "in.mid").write_bytes(b"x")
        # the tool writes the path it was given for {out} into that file
        template = (f'{PY} -c "import sys,pathlib; '
                    f'pathlib.Path(sys.argv[1]).write_text(sys.argv[1])" {{out}}')
        code = cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                         "-o", str(tmp_path / "part.wav"),
                         "--render-template", template, "--output-dir", str(tmp_path)])
        assert code == 0
        given = (tmp_path / "part.wav").read_text()
        assert given != str(tmp_path / "part.wav")
        assert os.path.dirname(given) == str(tmp_path) and given.endswith(".wav")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.mid", "part.wav"]

    def test_missing_template_exits_6(self, tmp_path):
        (tmp_path / "in.mid").write_bytes(b"x")
        code = cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                         "--output-dir", str(tmp_path)])
        assert code == 6

    @pytest.mark.parametrize("stage", ["render", "mux", "run"])
    def test_template_that_does_not_split_exits_6_before_any_stage(self, quad_video, tmp_path,
                                                                  capsys, stage):
        _, source = quad_video
        (tmp_path / "in.mid").write_bytes(b"x")
        (tmp_path / "a.wav").write_bytes(b"x")
        argv = {
            "render": ["render", "--midi", str(tmp_path / "in.mid"), "--render-template"],
            "mux": ["mux", "--video", source, "--audio", str(tmp_path / "a.wav"),
                    "--mux-template"],
            "run": ["run", "--source", source, "--render-template"],
        }[stage]
        out = tmp_path / "out"
        assert cli.main(argv + ["cp '{in} {out}", "--output-dir", str(out)]) == 6
        setting = "mux_template" if stage == "mux" else "render_template"
        assert f"bad {setting}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage, setting, files", [
        (stage_render, "render_template", 1),
        (stage_mux, "mux_template", 2),
    ], ids=["render", "mux"])
    def test_stage_called_directly_refuses_a_template_that_does_not_split(self, tmp_path,
                                                                          stage, setting, files):
        config = PipelineConfig(output_dir=str(tmp_path / "out"), **{setting: "cp '{in} {out}"})
        with pytest.raises(ConfigError, match=f"bad {setting}"):
            stage(config, *[str(tmp_path / "in.bin")] * files)
        assert not (tmp_path / "out").exists()

    def test_mux_template(self, tmp_path):
        video = tmp_path / "v.bin"
        audio = tmp_path / "a.bin"
        video.write_bytes(b"vv")
        audio.write_bytes(b"aa")
        template = (
            f'{PY} -c "import sys,pathlib; '
            f"pathlib.Path(sys.argv[3]).write_bytes(pathlib.Path(sys.argv[1]).read_bytes() + "
            f'pathlib.Path(sys.argv[2]).read_bytes())" {{in}} {{audio}} {{out}}'
        )
        out = tmp_path / "final.bin"
        code = cli.main(["mux", "--video", str(video), "--audio", str(audio),
                         "-o", str(out), "--mux-template", template,
                         "--output-dir", str(tmp_path)])
        assert code == 0
        assert out.read_bytes() == b"vvaa"


    def test_render_paths_holding_placeholders_are_passed_as_given(self, tmp_path):
        (tmp_path / "{soundfont}").mkdir()
        midi = tmp_path / "{soundfont}" / "in{out}.mid"
        midi.write_bytes(b"midi")
        template = f'{PY} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])" {{in}} {{out}}'
        code = cli.main(["render", "--midi", str(midi), "-o", str(tmp_path / "s.wav"),
                         "--soundfont", "gm.sf2", "--render-template", template,
                         "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "s.wav").read_bytes() == b"midi"

    def test_mux_paths_holding_placeholders_are_passed_as_given(self, tmp_path):
        video = tmp_path / "{audio}v{out}.bin"
        audio = tmp_path / "{in}a{soundfont}.bin"
        video.write_bytes(b"vv")
        audio.write_bytes(b"aa")
        template = (
            f'{PY} -c "import sys,pathlib; '
            f"pathlib.Path(sys.argv[3]).write_bytes(pathlib.Path(sys.argv[1]).read_bytes() + "
            f'pathlib.Path(sys.argv[2]).read_bytes())" {{in}} {{audio}} {{out}}'
        )
        out = tmp_path / "final{in}.bin"
        code = cli.main(["mux", "--video", str(video), "--audio", str(audio), "-o", str(out),
                         "--soundfont", "gm.sf2", "--mux-template", template,
                         "--output-dir", str(tmp_path)])
        assert code == 0
        assert out.read_bytes() == b"vvaa"


class TestRun:
    def test_full_chain_with_manifest(self, quad_video, tmp_path):
        _, source = quad_video
        config = PipelineConfig(source=source, output_dir=str(tmp_path), rng_seed=3)
        manifest = cmd_run(config)
        assert [s["name"] for s in manifest["stages"]] == ["analyze", "plan", "compose"]
        assert all(s["ms"] >= 0 for s in manifest["stages"])
        written = json.load(open(tmp_path / "run_manifest.json"))
        assert written["config_hash"] == config.config_hash()
        assert os.path.getsize(manifest["final_output"]) > 0

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_manifest_names_the_frame_statistics_path(self, quad_video, tmp_path,
                                                      monkeypatch, path):
        if path == "numpy":
            monkeypatch.setattr(frames, "_kernel", lambda: None)
        elif frames._kernel() is None:
            pytest.skip("no compiled pass could be built here")
        _, source = quad_video
        manifest = cmd_run(PipelineConfig(source=source, output_dir=str(tmp_path), rng_seed=3))
        assert manifest["tool_versions"]["frame_stats"] == path
        written = json.load(open(tmp_path / "run_manifest.json"))
        assert written["tool_versions"]["frame_stats"] == path

    def test_render_and_mux_chain_after_compose(self, quad_video, tmp_path):
        _, source = quad_video
        copy = f'{PY} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
        config = PipelineConfig(source=source, output_dir=str(tmp_path), rng_seed=3,
                                render_template=copy + " {in} {out}",
                                mux_template=copy + " {audio} {out}")
        manifest = cmd_run(config)
        stages = {s["name"]: s for s in manifest["stages"]}
        assert list(stages) == ["analyze", "plan", "compose", "render", "mux"]
        midi, wav, final = (str(tmp_path / name) for name in
                            ("soundtrack.mid", "soundtrack.wav", "final.rgb24"))
        assert stages["render"]["inputs"] == [midi]
        assert [out["path"] for out in stages["render"]["outputs"]] == [wav]
        assert stages["mux"]["inputs"] == [source, wav]
        assert [out["path"] for out in stages["mux"]["outputs"]] == [final]
        assert manifest["final_output"] == final
        assert open(final, "rb").read() == open(midi, "rb").read()

    def test_manifest_digests_match_the_outputs(self, quad_video, tmp_path):
        _, source = quad_video
        config = PipelineConfig(source=source, output_dir=str(tmp_path), rng_seed=3)
        manifest = cmd_run(config)
        outputs = [out for stage in manifest["stages"] for out in stage["outputs"]]
        assert [out["path"] for out in outputs] == [
            str(tmp_path / name) for name in ("scenes.json", "plan.ini", "soundtrack.mid")]
        for out in outputs:
            data = open(out["path"], "rb").read()
            assert out["bytes"] == len(data) > 0
            assert out["sha256"] == hashlib.sha256(data).hexdigest()
        assert json.load(open(tmp_path / "run_manifest.json")) == manifest

    def test_failed_rerun_leaves_no_manifest_of_the_old_files(self, quad_video, tmp_path):
        _, source = quad_video
        out = str(tmp_path / "out")
        assert cli.main(["run", "--source", source, "--output-dir", out]) == 0
        old_scenes = (tmp_path / "out" / "scenes.json").read_bytes()
        detections = tmp_path / "det.json"
        detections.write_text(json.dumps({"per_scene": {"0": -1}}))
        # one merged scene rewrites scenes.json, then plan fails on the count
        assert cli.main(["run", "--source", source, "--merge-tolerance", "1000",
                         "--detections", str(detections), "--output-dir", out]) == 3
        assert (tmp_path / "out" / "scenes.json").read_bytes() != old_scenes
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_manifest_inputs_name_the_mood_file_and_instrument_map(self, quad_video, tmp_path):
        _, source = quad_video
        mood = tmp_path / "custom.json"
        mood.write_text(json.dumps(inspire_with(tempo_range=[128, 128],
                                                time_signatures=[[4, 4]])))
        imap = tmp_path / "imap.json"
        imap.write_text((Path(SRC) / "vidscore/data/instruments.json").read_text())
        config = PipelineConfig(source=source, mood=str(mood), instruments=str(imap),
                                output_dir=str(tmp_path))
        inputs = {stage["name"]: stage["inputs"] for stage in cmd_run(config)["stages"]}
        assert inputs["plan"] == [str(tmp_path / "scenes.json"), str(mood)]
        assert inputs["compose"] == [str(tmp_path / "plan.ini"), str(imap)]

    def test_manifest_inputs_name_the_soundfont(self, quad_video, tmp_path):
        _, source = quad_video
        soundfont = tmp_path / "gm.sf2"
        soundfont.write_bytes(b"sf")
        copy = f'{PY} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
        config = PipelineConfig(source=source, output_dir=str(tmp_path), soundfont=str(soundfont),
                                render_template=copy + " {in} {out}")
        inputs = {stage["name"]: stage["inputs"] for stage in cmd_run(config)["stages"]}
        assert inputs["render"] == [str(tmp_path / "soundtrack.mid"), str(soundfont)]

    def test_mux_manifest_inputs_name_the_soundfont(self, quad_video, tmp_path):
        _, source = quad_video
        soundfont = tmp_path / "gm.sf2"
        soundfont.write_bytes(b"sf")
        copy = f'{PY} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
        config = PipelineConfig(source=source, output_dir=str(tmp_path), soundfont=str(soundfont),
                                render_template=copy + " {in} {out}",
                                mux_template=copy + " {audio} {out}")
        inputs = {stage["name"]: stage["inputs"] for stage in cmd_run(config)["stages"]}
        assert inputs["mux"] == [source, str(tmp_path / "soundtrack.wav"), str(soundfont)]

    def test_rerun_identical_soundtrack(self, quad_video, tmp_path):
        _, source = quad_video
        config = PipelineConfig(source=source, output_dir=str(tmp_path), rng_seed=3)
        cmd_run(config)
        first = open(tmp_path / "soundtrack.mid", "rb").read()
        cmd_run(config)
        assert open(tmp_path / "soundtrack.mid", "rb").read() == first

    def test_custom_mood_file_survives_plan_to_compose(self, quad_video, tmp_path):
        _, source = quad_video
        mood = tmp_path / "custom.json"  # 4/4 at 128 BPM: 7.5 s phrases
        mood.write_text(json.dumps(
            inspire_with(name="mycustom", tempo_range=[128, 128], time_signatures=[[4, 4]])))
        assert cli.main(["run", "--source", source, "--mood", str(mood),
                         "--output-dir", str(tmp_path)]) == 0
        doc = parse_ini((tmp_path / "plan.ini").read_text())
        assert doc.mood == str(mood)
        assert {entry.tempo for entry in doc.entries} == {128}
        smf = read_smf((tmp_path / "soundtrack.mid").read_bytes())
        assert {usec for _tick, usec in doc_tempos(smf)} == {round(60e6 / 128)}

    def test_custom_mood_named_like_a_preset_keeps_its_own_scale(self, quad_video, tmp_path):
        _, source = quad_video
        path = tmp_path / "inspire.json"
        path.write_text(json.dumps(inspire_with(scale={"root": "F#", "mode": "phrygian"})))
        assert cli.main(["run", "--source", source, "--mood", str(path), "--seed", "3",
                         "--output-dir", str(tmp_path)]) == 0
        plan = resolve_plan(parse_ini((tmp_path / "plan.ini").read_text()))

        def composed(mood):
            return write_smf(compose_plan(plan, mood), InstrumentMap.default())

        written = (tmp_path / "soundtrack.mid").read_bytes()
        assert written == composed(load_mood(str(path)))
        assert written != composed(load_mood("inspire"))

    def test_loop_mode_dispatch(self, quad_video, tmp_path):
        _, source = quad_video
        rate = 8000
        for name in ("low", "high"):
            write_wave(str(tmp_path / f"{name}.wav"),
                       (np.ones(rate) * 3000).astype(np.int16), rate)
        manifest_path = tmp_path / "stems.json"
        manifest_path.write_text(json.dumps([
            {"label": "low", "path": "low.wav", "activation_rank": 1},
            {"label": "high", "path": "high.wav", "activation_rank": 2},
        ]))
        config = PipelineConfig(
            source=source, output_dir=str(tmp_path), stems=str(manifest_path),
            loop_mode=True,
        )
        manifest = cmd_run(config)
        assert [s["name"] for s in manifest["stages"]] == ["analyze", "mix-loops"]
        assert manifest["final_output"].endswith(".wav")
        assert os.path.getsize(manifest["final_output"]) > 0
        [wav] = manifest["stages"][1]["outputs"]
        assert wav["path"] == manifest["final_output"]
        assert wav["sha256"] == hashlib.sha256(open(wav["path"], "rb").read()).hexdigest()

    def test_loop_run_without_stems_exits_6_before_analyze(self, quad_video, tmp_path):
        _, source = quad_video
        assert cli.main(["run", "--loop", "--source", source,
                         "--output-dir", str(tmp_path)]) == 6
        assert not (tmp_path / "scenes.json").exists()

    def test_config_hash_stable_across_reserialization(self, tmp_path):
        config = PipelineConfig(source="x.rgb24", output_dir=str(tmp_path))
        clone = PipelineConfig(**json.loads(json.dumps(config.__dict__)))
        assert clone.config_hash() == config.config_hash()


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[pipeline]\nmood = ember\nseed = 9\n")
        args = cli.build_parser().parse_args(
            ["plan", "--scenes", "x", "--config", str(cfg), "--mood", "drive"]
        )
        config = cli.resolve_config(args)
        assert config.mood == "drive"  # flag beats file
        assert config.rng_seed == 9  # file beats default

    def test_values_take_the_type_of_their_default(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(
            "[pipeline]\nfade_threshold = 10\ncut_threshold = 25.5\n"
            "merge_tolerance = 0.2\nmin_scene_frames = 8\nseed = 42\nloop = yes\n"
        )
        args = cli.build_parser().parse_args(
            ["run", "--config", str(cfg), "--cut-threshold", "40", "--seed", "7",
             "--min-scene-frames", "12"]
        )
        config = cli.resolve_config(args)
        got = {key: getattr(config, key) for key in (
            "fade_threshold", "cut_threshold", "merge_tolerance_s",
            "min_scene_frames", "rng_seed", "loop_mode")}
        assert got == {"fade_threshold": 10.0, "cut_threshold": 40.0,
                       "merge_tolerance_s": 0.2, "min_scene_frames": 12,
                       "rng_seed": 7, "loop_mode": True}
        assert [type(got[key]) for key in got] == [float, float, float, int, int, bool]
        no_flags = cli.resolve_config(cli.build_parser().parse_args(
            ["run", "--config", str(cfg)]))
        assert (no_flags.min_scene_frames, no_flags.rng_seed) == (8, 42)
        assert type(no_flags.min_scene_frames) is int and type(no_flags.rng_seed) is int
        cfg.write_text("[pipeline]\nloop = off\n")
        off = cli.resolve_config(cli.build_parser().parse_args(["run", "--config", str(cfg)]))
        assert off.loop_mode is False

    def test_non_integer_seed_exits_6(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[pipeline]\nseed = x\n")
        assert cli.main(["run", "--config", str(cfg)]) == 6

    @pytest.mark.parametrize("word, value", [
        ("TRUE", True), ("On", True), ("1", True), ("No", False), ("0", False),
        ("FALSE", False),
    ])
    def test_boolean_words_in_any_case(self, tmp_path, word, value):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(f"[pipeline]\nloop = {word}\n")
        config = cli.resolve_config(cli.build_parser().parse_args(["run", "--config", str(cfg)]))
        assert config.loop_mode is value

    @pytest.mark.parametrize("word", ["yess", "2", "y", "enabled", "truee"])
    def test_non_boolean_value_exits_6(self, tmp_path, capsys, word):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(f"[pipeline]\nloop = {word}\n")
        assert cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 6
        assert "loop_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["raw stream", "ppm directory"])
    @pytest.mark.parametrize("fps", ["0", "0/1", "-30", "1/0", "fast", "config -30000/1001"])
    def test_bad_fps_exits_6_whatever_the_source(self, tmp_path, capsys, source, fps):
        (tmp_path / "clip.rgb24").write_bytes(bytes(3 * 4 * 4))
        (tmp_path / "clip.hdr").write_text("width=4 height=4 fps_num=30 fps_den=1\n")
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "0000.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        path = tmp_path / ("clip.rgb24" if source == "raw stream" else "frames")
        out = tmp_path / "out"
        argv = ["analyze", "--source", str(path), "--output-dir", str(out)]
        if fps.startswith("config "):  # argparse reads "-30000/1001" as an option
            (tmp_path / "pipeline.ini").write_text(f"[pipeline]\nfps = {fps[7:]}\n")
            argv += ["--config", str(tmp_path / "pipeline.ini")]
        else:
            argv += ["--fps", fps]
        code = cli.main(argv)
        assert code == 6
        assert "bad fps" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("case, code", [
        ("header fps_num", 2), ("header fps_den", 2), ("--fps num", 6), ("--fps den", 6),
        ("scenes.json num", 2), ("scenes.json den", 2),
    ])
    def test_frame_rate_past_float_range_exits_with_stage_code(self, tmp_path, capsys,
                                                              case, code):
        huge = str(10 ** 400)
        num, den = (huge, "1") if case.endswith("num") else ("1", huge)
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "0000.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        (tmp_path / "clip.rgb24").write_bytes(bytes(3 * 4 * 4 * 2))
        (tmp_path / "clip.hdr").write_text(f"width=4 height=4 fps_num={num} fps_den={den}\n")
        scene = {"id": 0, "start_frame": 0, "end_frame": 240,
                 "opens_with": "start-of-video", "closes_with": "end-of-video"}
        (tmp_path / "scenes.json").write_text(
            f'{{"fps": [{num}, {den}], "total_frames": 240, "scenes": [{json.dumps(scene)}]}}')
        out = tmp_path / "out"
        argv = {
            "header": ["analyze", "--source", str(tmp_path / "clip.rgb24")],
            "--fps": ["analyze", "--source", str(tmp_path / "frames"), "--fps", f"{num}/{den}"],
            "scenes.json": ["plan", "--scenes", str(tmp_path / "scenes.json")],
        }[case.split()[0]]
        assert cli.main(argv + ["--output-dir", str(out)]) == code
        assert "past float range" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_video_whose_length_is_past_float_range_exits_2(self, tmp_path, capsys):
        # each term of 1/10**308 fits a float, but two frames last 2e308 s
        (tmp_path / "clip.rgb24").write_bytes(bytes(3 * 4 * 4 * 2))
        (tmp_path / "clip.hdr").write_text(f"width=4 height=4 fps_num=1 fps_den={10 ** 308}\n")
        out = tmp_path / "out"
        assert cli.main(["analyze", "--source", str(tmp_path / "clip.rgb24"),
                         "--output-dir", str(out)]) == 2
        assert "past float range" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fps", "-30000/1001"],  # argparse reads the value as a flag
        ["analyze", "--no-such-flag"],
        ["plan"],  # --scenes is required
        ["bogus"],
        [],
    ])
    def test_command_line_that_does_not_parse_exits_6(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 6
        assert "usage: vidscore" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        assert "usage: vidscore" in capsys.readouterr().out

    def test_positive_fps_reaches_the_source(self):
        assert PipelineConfig(fps="30000/1001").fps_pair() == (30000, 1001)
        assert PipelineConfig(fps="25").fps_pair() == (25, 1)
        assert PipelineConfig().fps_pair() is None

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIDSCORE_OUTPUT_DIR", str(tmp_path / "envout"))
        args = cli.build_parser().parse_args(["run"])
        config = cli.resolve_config(args)
        assert config.output_dir == str(tmp_path / "envout")
        args = cli.build_parser().parse_args(["run", "--output-dir", str(tmp_path)])
        assert cli.resolve_config(args).output_dir == str(tmp_path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "-0.05"])
    def test_bad_merge_tolerance_exits_6(self, quad_video, tmp_path, capsys, value):
        _, source = quad_video
        assert cli.main(["analyze", "--source", source, f"--merge-tolerance={value}",
                         "--output-dir", str(tmp_path)]) == 6
        assert "merge_tolerance_s" in capsys.readouterr().err
        assert not (tmp_path / "scenes.json").exists()

    def test_zero_merge_tolerance_is_valid(self, quad_video, tmp_path):
        _, source = quad_video
        assert cli.main(["analyze", "--source", source, "--merge-tolerance", "0",
                         "--output-dir", str(tmp_path)]) == 0
        assert len(scenes_from_json((tmp_path / "scenes.json").read_text())[0]) == 4

    def test_unknown_config_key_exits_6(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[pipeline]\nvolume = 11\n")
        code = cli.main(["run", "--config", str(cfg)])
        assert code == 6

    @pytest.mark.parametrize("text, line", [
        ("[pipeline]\nmood ember\n", 2),  # no '='
        ("mood = ember\n[pipeline]\n", 1),  # key before [pipeline]
    ])
    def test_malformed_config_line_exits_6(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg)]) == 6
        err = capsys.readouterr().err
        assert str(cfg) in err and f"line {line}" in err

    @pytest.mark.parametrize("text, line", [
        ("[pipeline]\nmood = ember\nmood = noir\n", 3),
        ("[pipeline]\nseed = 1\n[pipeline]\nseed = 2\n", 4),
    ], ids=["same block", "block reopened"])
    def test_repeated_config_key_exits_6(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg)]) == 6
        err = capsys.readouterr().err
        assert f"line {line}" in err and "twice" in err

    @pytest.mark.parametrize("text", [
        "[pipeline]\nmerge_tolerance = 0.5\nmerge_tolerance_s = 2\n",
        "[pipeline]\nseed = 3\n[pipeline]\nrng_seed = 9\n",
    ], ids=["flag name then field name", "across two blocks"])
    def test_setting_given_under_both_its_names_exits_6(self, tmp_path, capsys, text):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg)]) == 6
        assert f"{cfg}:{text.count(chr(10))}:" in capsys.readouterr().err

    def test_unknown_mood_exits_6(self, quad_video, tmp_path):
        _, source = quad_video
        assert cli.main(["analyze", "--source", source,
                         "--output-dir", str(tmp_path)]) == 0
        code = cli.main(["plan", "--scenes", str(tmp_path / "scenes.json"),
                         "--mood", "nonexistent", "--output-dir", str(tmp_path)])
        assert code == 6

    def test_unknown_complexity_exits_6_without_a_plan(self, analyzed, tmp_path, capsys):
        _, _, scenes_path = analyzed
        code = cli.main(["plan", "--scenes", scenes_path, "--complexity", "bogus",
                         "--output-dir", str(tmp_path)])
        assert code == 6
        assert "bogus" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_unknown_complexity_in_config_exits_6(self, analyzed, tmp_path):
        _, _, scenes_path = analyzed
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[pipeline]\ncomplexity = bogus\n")
        out = str(tmp_path / "out")
        assert cli.main(["plan", "--scenes", scenes_path, "--config", str(cfg),
                         "--output-dir", out]) == 6
        assert not os.path.exists(out)


def inspire_with(**changes):
    mood = json.loads((Path(SRC) / "vidscore/data/moods/inspire.json").read_text())
    mood.update(changes)
    return mood


class TestBadContentExitCodes:
    """Readable files with bad values leave main() through a VidscoreError
    with the README's exit code, not a bare traceback."""

    @pytest.mark.parametrize("doc", [
        {"per_frame": [{"frame": 0, "count": float("nan")}]},
        {"per_scene": {"0": float("inf"), "1": 1, "2": 1, "3": 1}},
        {"per_frame": [{"frame": float("inf"), "count": 1}]},
        {"per_scene": {"0": 10 ** 400, "1": 1, "2": 1, "3": 1}},  # too big for a float
    ])
    def test_non_finite_detections_exit_3(self, analyzed, tmp_path, doc):
        _, _, scenes_path = analyzed
        detections = tmp_path / "det.json"
        detections.write_text(json.dumps(doc))
        assert cli.main(["plan", "--scenes", scenes_path, "--detections", str(detections),
                         "--output-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "plan.ini").exists()

    def test_plan_tempo_the_smf_cannot_hold_exits_3(self, tmp_path, capsys):
        plan = tmp_path / "plan.ini"
        plan.write_text(
            "[composition]\nduration = 1920.0\nmood = inspire\ncomplexity = simple\n"
            "seed = 1\n\n[section0]\ntime_sig = 4/4\ntempo = 2\nenergy = medium\n"
            "duration = 1920.0\ndirection = up\nslope = stay\n"
        )
        assert cli.main(["compose", "--plan", str(plan), "--output-dir", str(tmp_path)]) == 3
        assert "line 9: unsupported tempo '2'" in capsys.readouterr().err
        assert not (tmp_path / "soundtrack.mid").exists()

    def test_plan_tempo_over_the_ceiling_exits_3(self, tmp_path, capsys):
        plan = tmp_path / "plan.ini"
        plan.write_text(
            "[composition]\nduration = 12.0\nmood = inspire\ncomplexity = simple\n"
            "seed = 1\n\n[section0]\ntime_sig = 4/4\ntempo = 100000\nenergy = medium\n"
            "duration = 12.0\ndirection = up\nslope = stay\n"
        )
        assert cli.main(["compose", "--plan", str(plan), "--output-dir", str(tmp_path)]) == 3
        assert "line 9: unsupported tempo '100000'" in capsys.readouterr().err
        assert not (tmp_path / "soundtrack.mid").exists()

    @pytest.mark.parametrize("section, composition", [
        ("nan", "10.0"),
        ("inf", "10.0"),
        ("1e400", "10.0"),
        ("1 to inf", "10.0"),
        ("nan to 9", "10.0"),
        ("10.0", "nan"),
    ])
    def test_non_finite_plan_durations_exit_3(self, tmp_path, capsys, section, composition):
        plan = tmp_path / "plan.ini"
        plan.write_text(
            f"[composition]\nduration = {composition}\nmood = inspire\n"
            "complexity = simple\nseed = 1\n\n[section0]\ntime_sig = 4/4\ntempo = 96\n"
            f"energy = medium\nduration = {section}\ndirection = up\nslope = stay\n"
        )
        assert cli.main(["compose", "--plan", str(plan), "--output-dir", str(tmp_path)]) == 3
        assert "duration" in capsys.readouterr().err
        assert not (tmp_path / "soundtrack.mid").exists()

    def test_scenes_whose_bar_count_overflows_exit_3(self, tmp_path, capsys):
        # one frame at 10**-308 fps lasts 1e308 s, and 1e308 s over a 0.06 s
        # bar is past float range
        scene = {"id": 0, "start_frame": 0, "end_frame": 1,
                 "opens_with": "start-of-video", "closes_with": "end-of-video"}
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps({"fps": [1, 10 ** 308], "total_frames": 1,
                                      "scenes": [scene]}))
        mood = tmp_path / "mood.json"
        mood.write_text(json.dumps(inspire_with(tempo_range=[990, 1000],
                                                time_signatures=[[2, 8]], phrase_length_bars=1)))
        assert cli.main(["plan", "--scenes", str(scenes), "--mood", str(mood),
                         "--output-dir", str(tmp_path)]) == 3
        assert "no tempo/time-signature/phrase combination fits section 0" in \
            capsys.readouterr().err
        assert not (tmp_path / "plan.ini").exists()

    @pytest.mark.parametrize("fps, total, code, message", [
        ([1, 10 ** 308], 1, 3, "no tempo/time-signature/phrase combination fits section 0 "
                               "(duration 1e+308 s)"),
        ([10 ** 400, 1], 1, 2, "frame rate 100000000000... (401 digits)/1 has a term past "
                               "float range"),
        ([30, 1], 10 ** 400, 2, "scenes cover 1 frames, expected 100000000000... (401 digits)"),
        ([30, 1], 2, 2, "scenes cover 1 frames, expected 2"),
    ], ids=["duration past 1e300 s", "frame rate term", "frame count", "ordinary frame count"])
    def test_a_huge_number_in_the_scenes_gives_a_short_message(self, tmp_path, capsys, fps,
                                                              total, code, message):
        scene = {"id": 0, "start_frame": 0, "end_frame": 1,
                 "opens_with": "start-of-video", "closes_with": "end-of-video"}
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps({"fps": fps, "total_frames": total, "scenes": [scene]}))
        mood = tmp_path / "mood.json"
        mood.write_text(json.dumps(inspire_with(tempo_range=[990, 1000],
                                                time_signatures=[[2, 8]], phrase_length_bars=1)))
        assert cli.main(["plan", "--scenes", str(scenes), "--mood", str(mood),
                         "--output-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert len(err) < 200

    def test_a_frame_time_past_float_range_gives_a_short_message(self, tmp_path, capsys):
        (tmp_path / "clip.rgb24").write_bytes(bytes(3 * 12))  # three 2x2 frames
        (tmp_path / "clip.hdr").write_text(f"width=2 height=2 fps_num=1 fps_den={10 ** 308}\n")
        assert cli.main(["analyze", "--source", str(tmp_path / "clip.rgb24"),
                         "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "frame 3 at 1/100000000000... (309 digits) fps is past float range" in err
        assert len(err) < 200

    @pytest.mark.parametrize("fps", ["1/1" + "0" * 400, "0/" + "9" * 300],
                             ids=["term past float range", "not positive"])
    def test_a_huge_fps_flag_gives_a_short_message(self, tmp_path, capsys, fps):
        (tmp_path / "clip.rgb24").write_bytes(bytes(3 * 12))
        (tmp_path / "clip.hdr").write_text("width=2 height=2 fps_num=30 fps_den=1\n")
        assert cli.main(["analyze", "--source", str(tmp_path / "clip.rgb24"), "--fps", fps,
                         "--output-dir", str(tmp_path / "out")]) == 6
        err = capsys.readouterr().err
        assert f"bad fps '{fps[:79]}: frame rate " in err
        assert len(err) < 200

    @pytest.mark.parametrize("duration", ["1e308", "8 to 1e308"])
    def test_plan_duration_whose_bar_count_overflows_exits_3(self, tmp_path, capsys, duration):
        plan = tmp_path / "plan.ini"
        plan.write_text(
            "[composition]\nduration = 1e308\nmood = inspire\ncomplexity = simple\n"
            "seed = 1\n\n[section0]\ntime_sig = 2/8\ntempo = 1000\nenergy = medium\n"
            f"duration = {duration}\ndirection = up\nslope = stay\n"
        )
        assert cli.main(["compose", "--plan", str(plan), "--output-dir", str(tmp_path)]) == 3
        assert "line 7: section 0 spans inf bars" in capsys.readouterr().err
        assert not (tmp_path / "soundtrack.mid").exists()

    @pytest.mark.parametrize("field", ["fps", "total_frames", "id", "start_frame"])
    def test_scene_number_too_big_for_an_int_exits_2(self, valid_inputs, tmp_path, field):
        # json reads 1e400 as the float inf, which is no integer
        text = Path(valid_inputs["scenes"]).read_text()
        bad = tmp_path / "scenes.json"
        bad.write_text(re.sub(rf'("{field}": \[?\s*)\d+', r"\g<1>1e400", text, count=1))
        assert bad.read_text() != text
        assert cli.main(["plan", "--scenes", str(bad), "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, text, code", [
        (["mix-loops", "--scenes", "{scenes}", "--stems", "{bad}"],
         '[{"label": "a", "path": "tone.wav", "activation_rank": 1e400}]', 6),
        (["compose", "--plan", "{plan}", "--instruments", "{bad}"], '{"piano": 1e400}', 4),
    ], ids=["stem-manifest", "instrument-map"])
    def test_setting_too_big_for_an_int_exits_with_stage_code(
        self, valid_inputs, tmp_path, argv, text, code
    ):
        write_wave(str(tmp_path / "tone.wav"), np.ones(800, dtype=np.int16), 8000)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = [arg.format(bad=bad, **valid_inputs) for arg in argv]
        assert cli.main(args + ["--output-dir", str(tmp_path / "out")]) == code

    def test_stem_chunk_past_the_end_exits_4(self, valid_inputs, tmp_path, capsys):
        write_wave(str(tmp_path / "tone.wav"), np.ones(800, dtype=np.int16), 8000)
        data = bytearray((tmp_path / "tone.wav").read_bytes())
        assert data[12:16] == b"fmt "
        data[17] = 0xFF  # the fmt chunk now claims 65296 bytes
        (tmp_path / "tone.wav").write_bytes(bytes(data))
        (tmp_path / "stems.json").write_text(
            json.dumps([{"label": "a", "path": "tone.wav", "activation_rank": 1}]))
        out = tmp_path / "out"
        assert cli.main(["mix-loops", "--scenes", valid_inputs["scenes"], "--stems",
                         str(tmp_path / "stems.json"), "--output-dir", str(out)]) == 4
        assert "cannot read a PCM WAV file" in capsys.readouterr().err
        assert not (out / "soundtrack.wav").exists()

    @pytest.mark.parametrize("changes", [
        {"tempo_range": [2, 120]},
        {"tempo_range": [60.5, 120]},
        {"scale": {"root": ["C"], "mode": "major"}},
        {"time_signatures": [[4.0, 4]]},
    ])
    def test_bad_mood_values_exit_6(self, analyzed, tmp_path, changes):
        _, _, scenes_path = analyzed
        mood = tmp_path / "mood.json"
        mood.write_text(json.dumps(inspire_with(**changes)))
        assert cli.main(["plan", "--scenes", scenes_path, "--mood", str(mood),
                         "--output-dir", str(tmp_path)]) == 6
        assert not (tmp_path / "plan.ini").exists()


@pytest.fixture(scope="module")
def valid_inputs(analyzed, tmp_path_factory):
    """One valid file for each stage input, so a case can break exactly one."""
    directory = tmp_path_factory.mktemp("valid")
    _, video, scenes = analyzed
    plan = stage_plan(PipelineConfig(output_dir=str(directory), rng_seed=1), scenes)
    rate = 8000
    write_wave(str(directory / "tone.wav"), (np.ones(rate) * 3000).astype(np.int16), rate)
    stems = directory / "stems.json"
    stems.write_text(json.dumps([{"label": "a", "path": "tone.wav", "activation_rank": 1}]))
    return {"video": video, "scenes": scenes, "plan": plan, "stems": str(stems)}


BAD_KINDS = ("missing", "directory", "not_utf8")

# (argv, name of the one bad path, exit code per BAD_KINDS); "{case}" is the
# case's own directory, which always holds stems.json naming stem.wav, a
# one-frame clip.rgb24 and a frames/ directory
ERROR_CONTRACT = {
    "config": (["run", "--config", "{bad}"], "pipeline.ini", (6, 6, 6)),
    "plan --scenes": (["plan", "--scenes", "{bad}"], "scenes.json", (2, 2, 2)),
    "mix-loops --scenes": (["mix-loops", "--scenes", "{bad}", "--stems", "{stems}"],
                           "scenes.json", (2, 2, 2)),
    "compose --plan": (["compose", "--plan", "{bad}"], "plan.ini", (3, 3, 3)),
    "melody": (["compose", "--plan", "{plan}", "--melody", "{bad}"], "motif.mid", (6, 6, 4)),
    "detections": (["plan", "--scenes", "{scenes}", "--detections", "{bad}"],
                   "det.json", (3, 3, 3)),
    "mood file": (["plan", "--scenes", "{scenes}", "--mood", "{bad}"], "mood.json", (6, 6, 6)),
    "instrument map": (["compose", "--plan", "{plan}", "--instruments", "{bad}"],
                       "imap.json", (6, 6, 6)),
    "stem manifest": (["mix-loops", "--scenes", "{scenes}", "--stems", "{bad}"],
                      "bad.json", (6, 6, 6)),
    "stem wav": (["mix-loops", "--scenes", "{scenes}", "--stems", "{case}/stems.json"],
                 "stem.wav", (4, 4, 4)),
    "stream header": (["analyze", "--source", "{case}/clip.rgb24"], "clip.hdr", (2, 2, 2)),
    "ppm frame": (["analyze", "--source", "{case}/frames", "--fps", "30/1"],
                  "frames/0000.ppm", (2, 2, 2)),
    # outputs: the bad path is the directory written into, so "directory" is
    # the one kind that succeeds
    "analyze -o": (["analyze", "--source", "{video}", "-o", "{bad}/scenes.json"],
                   "out", (6, 0, 6)),
    "plan -o": (["plan", "--scenes", "{scenes}", "-o", "{bad}/plan.ini"], "out", (6, 0, 6)),
    "compose -o": (["compose", "--plan", "{plan}", "-o", "{bad}/soundtrack.mid"],
                   "out", (6, 0, 6)),
    "--dump-events": (["compose", "--plan", "{plan}", "--dump-events", "{bad}/events.json"],
                      "out", (6, 0, 6)),
    "mix-loops -o": (["mix-loops", "--scenes", "{scenes}", "--stems", "{stems}",
                      "-o", "{bad}/soundtrack.wav"], "out", (6, 0, 6)),
    "--output-dir": (["analyze", "--source", "{video}", "--output-dir", "{bad}/sub"],
                     "out", (6, 0, 6)),
}


@pytest.mark.parametrize("kind", BAD_KINDS)
@pytest.mark.parametrize("case", sorted(ERROR_CONTRACT))
def test_unreadable_files_exit_with_stage_code(valid_inputs, tmp_path, case, kind):
    """Every file argument that is missing, a directory or not UTF-8 leaves
    main() through a VidscoreError with the README's exit code; any other
    exception escapes main() and fails the test."""
    argv, bad_name, codes = ERROR_CONTRACT[case]
    (tmp_path / "stems.json").write_text(
        json.dumps([{"label": "a", "path": "stem.wav", "activation_rank": 1}]))
    (tmp_path / "clip.rgb24").write_bytes(bytes(3 * 4 * 4))
    (tmp_path / "clip.hdr").write_text("width=4 height=4 fps_num=30 fps_den=1\n")
    (tmp_path / "frames").mkdir()
    bad = tmp_path / bad_name
    if bad.exists():
        bad.unlink()
    if kind == "missing":  # a dangling link, so a directory listing still names it
        bad.symlink_to(tmp_path / "nowhere")
    elif kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe not text \x00\x81")
    fields = dict(valid_inputs, bad=str(bad), case=str(tmp_path))
    args = [arg.format(**fields) for arg in argv]
    # a case's own --output-dir comes later and wins over this default
    code = cli.main(args[:1] + ["--output-dir", str(tmp_path / "outdir")] + args[1:])
    assert code == codes[BAD_KINDS.index(kind)]


@pytest.mark.parametrize("case, code", [
    ("detections", 3), ("mood file", 6), ("instrument map", 6), ("stem manifest", 6),
])
def test_json_integer_too_long_to_convert_exits_with_stage_code(valid_inputs, tmp_path,
                                                                case, code):
    """json refuses an integer of more than 4300 digits with a bare ValueError."""
    argv, bad_name, _ = ERROR_CONTRACT[case]
    bad = tmp_path / bad_name
    bad.write_text("[" + "9" * 5000 + "]")
    args = [arg.format(**valid_inputs, bad=str(bad), case=str(tmp_path)) for arg in argv]
    assert cli.main(args[:1] + ["--output-dir", str(tmp_path / "outdir")] + args[1:]) == code


@pytest.mark.parametrize("case, code", [
    ("plan --scenes", 2), ("detections", 3), ("mood file", 6), ("instrument map", 6),
    ("stem manifest", 6),
])
def test_deeply_nested_json_exits_with_stage_code(valid_inputs, tmp_path, case, code):
    """json gives up on nesting deeper than the interpreter's recursion limit
    with a RecursionError."""
    argv, bad_name, _ = ERROR_CONTRACT[case]
    bad = tmp_path / bad_name
    bad.write_text("[" * 200000)
    args = [arg.format(**valid_inputs, bad=str(bad), case=str(tmp_path)) for arg in argv]
    assert cli.main(args[:1] + ["--output-dir", str(tmp_path / "outdir")] + args[1:]) == code


def one_scene(fps):
    """A 240-frame, one-scene list, which has fits at 29/1 and at 30000/1001."""
    scene = {"id": 0, "start_frame": 0, "end_frame": 240,
             "opens_with": "start-of-video", "closes_with": "end-of-video"}
    return {"fps": fps, "total_frames": 240, "scenes": [scene]}


def per_frame(first):
    """Per-frame detections for the four 450-frame scenes, ``first`` in scene 0."""
    return {"per_frame": [first] + [{"frame": f, "count": 1} for f in (450, 900, 1350)]}


def per_scene(counts):
    return {"per_scene": dict(counts, **{"2": 1, "3": 1})}


STEM = {"label": "a", "path": "tone.wav", "activation_rank": 1}

# case -> (ERROR_CONTRACT case, the file's JSON value, exit code). A refused
# value is one that int() or float() would make fit; a twin, a value of the
# exact JSON type, passes and writes its stage's artifact.
JSON_VALUES = {
    "fps 29.97/1": ("plan --scenes", one_scene([29.97, 1]), 2),
    "fps 30000/1001": ("plan --scenes", one_scene([30000, 1001]), 0),
    "frame 10.7, count '3'": ("detections", per_frame({"frame": 10.7, "count": "3"}), 3),
    "frame 10.7": ("detections", per_frame({"frame": 10.7, "count": 3}), 3),
    "frame true, count true": ("detections", per_frame({"frame": True, "count": True}), 3),
    "frame true": ("detections", per_frame({"frame": True, "count": 3}), 3),
    "count 2.0": ("detections", per_frame({"frame": 10, "count": 2.0}), 0),
    "scene key 0_0": ("detections", per_scene({"0_0": 2, "1": 4}), 3),
    "scene key 01": ("detections", per_scene({"0": 2, "01": 4}), 3),
    "scene key ' 1'": ("detections", per_scene({"0": 2, " 1": 4}), 3),
    "scene count '4'": ("detections", per_scene({"0": 2, "1": "4"}), 3),
    "scene count 2.0": ("detections", per_scene({"0": 2.0, "1": 4}), 0),
    "activation_rank 2.9": ("stem manifest", [dict(STEM, activation_rank=2.9)], 6),
    "activation_rank '1'": ("stem manifest", [dict(STEM, activation_rank="1")], 6),
    "activation_rank 2": ("stem manifest", [dict(STEM, activation_rank=2)], 0),
    "label null": ("stem manifest", [dict(STEM, label=None)], 6),
}


@pytest.mark.parametrize("case", sorted(JSON_VALUES))
def test_json_values_are_read_at_their_exact_type(valid_inputs, tmp_path, case):
    contract, value, code = JSON_VALUES[case]
    argv, bad_name, _ = ERROR_CONTRACT[contract]
    bad = tmp_path / bad_name
    bad.write_text(json.dumps(value))
    write_wave(str(tmp_path / "tone.wav"), np.ones(800, dtype=np.int16), 8000)
    out = tmp_path / "out"
    args = [arg.format(**valid_inputs, bad=str(bad), case=str(tmp_path)) for arg in argv]
    assert cli.main(args + ["--output-dir", str(out)]) == code
    artifact = {"plan": "plan.ini", "mix-loops": "soundtrack.wav"}[argv[0]]
    written = sorted(os.listdir(out)) if out.exists() else []
    assert written == ([] if code else [artifact])


@pytest.mark.parametrize("stage, patched, artifact", [
    (stage_plan, "plan_to_ini", "plan.ini"),
    (stage_compose, "write_smf", "soundtrack.mid"),
])
def test_failed_writer_keeps_previous_artifact(
    valid_inputs, tmp_path, monkeypatch, stage, patched, artifact
):
    config = PipelineConfig(output_dir=str(tmp_path), rng_seed=4)
    stage_plan(config, valid_inputs["scenes"])
    stage_compose(config, str(tmp_path / "plan.ini"))
    before = (tmp_path / artifact).read_bytes()

    def broken(*_args):
        raise InvalidEventError("writer failed halfway")

    monkeypatch.setattr(pipeline, patched, broken)
    source = valid_inputs["scenes"] if stage is stage_plan else str(tmp_path / "plan.ini")
    with pytest.raises(InvalidEventError):
        stage(config, source)
    assert (tmp_path / artifact).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_plan_and_compose_modules_import_without_numpy():
    """Only analyze and mix-loops need numpy; the modules that plan and
    compose a score import without it."""
    code = ("import sys\n"
            "import vidscore.scenes, vidscore.energy, vidscore.planner\n"
            "import vidscore.moods, vidscore.composer, vidscore.midi\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([PY, "-c", code], capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def layer_of_names():
    """The pipeline names perfbench/spans.py wraps, each with its layer, read
    from its source."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_OF"]:
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py has no LAYER_OF")


def test_traced_names_exist():
    missing = [name for name in layer_of_names() if not callable(getattr(pipeline, name, None))]
    assert missing == []
    untraced = [stage.function for stage in pipeline.STAGES.values()
                if layer_of_names().get(stage.function) != "pipeline.self"]
    assert untraced == []
    assert callable(pipeline.InstrumentMap.default)
    assert callable(pipeline.InstrumentMap.from_file)
    assert callable(planner.phrase_seconds)


@pytest.mark.parametrize("mode", ["global", "per-scene-energy"])
def test_stage_plan_calls_planner_names_through_module_globals(
    analyzed, tmp_path, monkeypatch, mode
):
    names = ["sections_from_scenes", "fit_tolerance", "enumerate_fits", "harmonize_tempo",
             "finalize_plan"] + (["assign_tempo_band"] if mode != "global" else [])
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    config = PipelineConfig(output_dir=str(tmp_path), planner_mode=mode, rng_seed=5)
    stage_plan(config, analyzed[2])
    assert called == set(names)
