"""A write that fails part way leaves every target as it was.

Each case runs one command in a child process whose file size limit
(RLIMIT_FSIZE) is 0, 1 byte, half the largest target or all but one byte of
it, with SIGXFSZ ignored so an oversized write fails with EFBIG instead of
killing the child. The command must exit 6, leave no temp file, and keep each
target byte for byte as the previous command wrote it. The children run one
after another.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import vidscore
from vidscore import cli

from conftest import CUT_SAFE_COLORS, VideoBuilder, write_wave

SRC = os.path.dirname(os.path.dirname(vidscore.__file__))

# the limit is set after vidscore is imported, and applies to this child only
CHILD = """\
import resource, signal, sys
from vidscore import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(cli.main(sys.argv[2:]))
"""

LOOP = ["--loop", "--stems", "{in}/stems.json"]

# case -> (the command that writes the previous targets, the command that
# fails, its targets); "{in}" is the inputs' folder and "{out}" the case's
# output folder. The failing command writes different bytes than the first.
CASES = {
    "analyze": (["analyze", "--source", "{in}/a.rgb24"],
                ["analyze", "--source", "{in}/b.rgb24"], ["scenes.json"]),
    "plan": (["plan", "--scenes", "{in}/a.json"],
             ["plan", "--scenes", "{in}/a.json", "--mood", "noir"], ["plan.ini"]),
    "compose --dump-events": (
        ["compose", "--plan", "{in}/inspire.ini", "--dump-events", "{out}/events.json"],
        ["compose", "--plan", "{in}/noir.ini", "--dump-events", "{out}/events.json"],
        ["soundtrack.mid", "events.json"]),
    "mix-loops": (["mix-loops", "--scenes", "{in}/a.json", "--stems", "{in}/stems.json"],
                  ["mix-loops", "--scenes", "{in}/b.json", "--stems", "{in}/stems.json"],
                  ["soundtrack.wav"]),
    "run": (["run", "--source", "{in}/a.rgb24"], ["run", "--source", "{in}/b.rgb24"],
            ["soundtrack.mid"]),
    "run --loop": (["run", "--source", "{in}/a.rgb24"] + LOOP,
                   ["run", "--source", "{in}/b.rgb24"] + LOOP, ["soundtrack.wav"]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two clips of 15 s scenes (four and three of them), their scene lists,
    an inspire and a noir plan of the first, and a manifest of two stems."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, colors in (("a", CUT_SAFE_COLORS[:4]), ("b", CUT_SAFE_COLORS[3:6])):
        builder = VideoBuilder(width=32, height=18)
        for color in colors:
            builder.add_run(color, 450)
        source = builder.write(folder, name)
        assert cli.main(["analyze", "--source", source, "-o", str(folder / f"{name}.json")]) == 0
    for mood in ("inspire", "noir"):
        assert cli.main(["plan", "--scenes", str(folder / "a.json"), "--mood", mood,
                         "-o", str(folder / f"{mood}.ini")]) == 0
    gen = np.random.default_rng(7)
    for label, frames in (("low", 8000), ("high", 5000)):
        write_wave(str(folder / f"{label}.wav"),
                   gen.integers(-3000, 3000, frames, dtype=np.int16), 8000)
    (folder / "stems.json").write_text(json.dumps([
        {"label": "low", "path": "low.wav", "activation_rank": 1},
        {"label": "high", "path": "high.wav", "activation_rank": 2},
    ]))
    return folder


def run_in_process(argv, inputs, out):
    args = [arg.format(**{"in": inputs, "out": out}) for arg in argv]
    assert cli.main(args + ["--output-dir", str(out)]) == 0


def read_all(folder, names):
    return {name: (folder / name).read_bytes() for name in names}


@pytest.mark.parametrize("case", list(CASES))
def test_write_failure_keeps_the_previous_targets(inputs, tmp_path, case):
    previous_argv, argv, targets = CASES[case]
    previous = tmp_path / "previous"
    run_in_process(previous_argv, inputs, previous)
    before = read_all(previous, targets)
    fresh = tmp_path / "fresh"  # what the failing command writes when it can
    run_in_process(argv, inputs, fresh)
    written = read_all(fresh, targets)
    assert all(written[name] != before[name] for name in targets)
    largest = max(len(data) for data in written.values())
    if case == "compose --dump-events":  # a limit that lets the MIDI file through
        assert len(written["soundtrack.mid"]) < largest // 2

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for limit in (0, 1, largest // 2, largest - 1):
        out = tmp_path / f"limit{limit}"
        shutil.copytree(previous, out)
        args = [arg.format(**{"in": inputs, "out": out}) for arg in argv]
        result = subprocess.run(
            [sys.executable, "-c", CHILD, str(limit), *args, "--output-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 6, (limit, result.stderr)
        assert not [name for name in os.listdir(out) if ".tmp" in name], limit
        assert read_all(out, targets) == before, limit
