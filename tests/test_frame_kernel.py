"""The compiled per-frame pass: which path runs, how the library is built
and cached, and the numpy fallback wherever it cannot be built."""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from vidscore import frames

from test_frames import noisy_clip

CC = shlex.split(sysconfig.get_config_var("CC") or "")
needs_cc = pytest.mark.skipif(not CC or shutil.which(CC[0]) is None,
                              reason="no C compiler on the path")


def numpy_stats(monkeypatch, clip):
    with monkeypatch.context() as patch:
        patch.setattr(frames, "_kernel", lambda: None)
        return list(frames.stream_stats(clip))


def stats_with(monkeypatch, kernel, clip):
    with monkeypatch.context() as patch:
        patch.setattr(frames, "_kernel", lambda: kernel)
        return list(frames.stream_stats(clip))


@pytest.fixture
def compiles(monkeypatch):
    """The compiler runs ``_build`` makes; returns their output paths."""
    outputs = []
    run = subprocess.run

    def counting_run(command, **kwargs):
        outputs.append(command[command.index("-o") + 1])
        return run(command, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return outputs


def libraries(folder):
    return sorted(name for name in os.listdir(folder) if name.endswith(".so"))


@needs_cc
def test_the_compiled_pass_is_taken_where_a_c_compiler_is_on_the_path(monkeypatch):
    assert frames._kernel() is not None
    assert frames.stats_path() == "compiled"
    monkeypatch.setattr(frames, "_frame_hsv", lambda *args: pytest.fail("ran the numpy path"))
    clip = noisy_clip(3, "cut")
    assert list(frames.stream_stats(clip))[2].hsv_delta > 0


def test_no_compiler_falls_back_to_numpy(monkeypatch, tmp_path):
    clip = noisy_clip(4, "fade")
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: str(tmp_path / "no-such-cc") if name == "CC" else None)
    kernel = frames._build(frames._SOURCE, str(tmp_path / "cache"))
    assert kernel is None
    assert not (tmp_path / "cache").exists()
    assert stats_with(monkeypatch, kernel, clip) == numpy_stats(monkeypatch, clip)


@needs_cc
def test_a_failed_compile_falls_back_to_numpy(monkeypatch, tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("this is not C\n")
    cache = tmp_path / "cache"
    kernel = frames._build(str(source), str(cache))
    assert kernel is None
    assert os.listdir(cache) == []  # the temporary output is gone
    clip = noisy_clip(4, "cut")
    assert stats_with(monkeypatch, kernel, clip) == numpy_stats(monkeypatch, clip)


@needs_cc
def test_an_unreadable_source_falls_back_to_numpy(tmp_path):
    assert frames._build(str(tmp_path / "missing.c"), str(tmp_path / "cache")) is None


@needs_cc
def test_a_library_is_built_once_per_source_and_flags(monkeypatch, tmp_path, compiles):
    source, cache = tmp_path / "pass.c", tmp_path / "cache"
    shutil.copy(frames._SOURCE, source)
    clip = noisy_clip(4, "cut")
    expected = numpy_stats(monkeypatch, clip)
    first = frames._build(str(source), str(cache))
    assert stats_with(monkeypatch, first, clip) == expected
    assert frames._build(str(source), str(cache)) is not None
    assert len(compiles) == 1
    built = libraries(cache)
    assert len(built) == 1 and built[0].startswith("_framestats.")

    source.write_text(source.read_text() + "/* changed */\n")
    changed = frames._build(str(source), str(cache))
    assert len(compiles) == 2
    assert len(libraries(cache)) == 2  # a new key, and a new library beside the old
    assert stats_with(monkeypatch, changed, clip) == expected

    monkeypatch.setattr(frames, "_CFLAGS", frames._CFLAGS + ("-g",))
    frames._build(str(source), str(cache))
    assert len(compiles) == 3
    assert len(libraries(cache)) == 3
    assert sorted(os.listdir(cache)) == libraries(cache)  # no temporary file is left


@needs_cc
@pytest.mark.parametrize("how", ["read-only", "a file in the way"])
def test_an_unwritable_cache_falls_back_to_numpy(monkeypatch, tmp_path, compiles, how):
    cache = tmp_path / "cache"
    if how == "read-only":
        if os.geteuid() == 0:
            pytest.skip("root writes into a read-only folder")
        cache.mkdir(mode=0o555)
    else:
        cache.write_text("")
    kernel = frames._build(frames._SOURCE, str(cache))
    assert kernel is None
    assert compiles == []  # nothing is compiled where it cannot be kept
    clip = noisy_clip(5, "fade")
    assert stats_with(monkeypatch, kernel, clip) == numpy_stats(monkeypatch, clip)


def test_nothing_is_built_at_import():
    code = ("import sys; sys.path.insert(0, 'src'); import vidscore.pipeline, vidscore.frames; "
            "print(vidscore.frames._kernel.cache_info().currsize)")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"
