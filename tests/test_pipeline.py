import json
import os
import sys

import numpy as np
import pytest

from vidscore import cli
from vidscore.energy import classify_energy
from vidscore.loops import write_wav
from vidscore.pipeline import PipelineConfig, cmd_run, stage_analyze, stage_plan
from vidscore.planner import parse_ini
from vidscore.scenes import scenes_from_json

from conftest import CUT_SAFE_COLORS, VideoBuilder

PY = sys.executable


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

    def test_cli_prints_scene_count(self, tmp_path, capsys):
        builder = VideoBuilder().add_run(CUT_SAFE_COLORS[0], 60)
        source = builder.write(tmp_path)
        code = cli.main(["analyze", "--source", source, "--output-dir", str(tmp_path)])
        assert code == 0
        assert "1 scene" in capsys.readouterr().out


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

    def test_missing_template_exits_6(self, tmp_path):
        (tmp_path / "in.mid").write_bytes(b"x")
        code = cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                         "--output-dir", str(tmp_path)])
        assert code == 6

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

    def test_rerun_identical_soundtrack(self, quad_video, tmp_path):
        _, source = quad_video
        config = PipelineConfig(source=source, output_dir=str(tmp_path), rng_seed=3)
        cmd_run(config)
        first = open(tmp_path / "soundtrack.mid", "rb").read()
        cmd_run(config)
        assert open(tmp_path / "soundtrack.mid", "rb").read() == first

    def test_loop_mode_dispatch(self, quad_video, tmp_path):
        _, source = quad_video
        rate = 8000
        for name in ("low", "high"):
            write_wav(str(tmp_path / f"{name}.wav"),
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

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIDSCORE_OUTPUT_DIR", str(tmp_path / "envout"))
        args = cli.build_parser().parse_args(["run"])
        config = cli.resolve_config(args)
        assert config.output_dir == str(tmp_path / "envout")
        args = cli.build_parser().parse_args(["run", "--output-dir", str(tmp_path)])
        assert cli.resolve_config(args).output_dir == str(tmp_path)

    def test_unknown_config_key_exits_6(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[pipeline]\nvolume = 11\n")
        code = cli.main(["run", "--config", str(cfg)])
        assert code == 6

    def test_unknown_mood_exits_6(self, quad_video, tmp_path):
        _, source = quad_video
        assert cli.main(["analyze", "--source", source,
                         "--output-dir", str(tmp_path)]) == 0
        code = cli.main(["plan", "--scenes", str(tmp_path / "scenes.json"),
                         "--mood", "nonexistent", "--output-dir", str(tmp_path)])
        assert code == 6
