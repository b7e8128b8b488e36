"""The compiled per-frame pass: which path runs, how the library is built
and cached, and the numpy fallback wherever it cannot be built."""

import os
import platform
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from vidscore import frames
from vidscore.frames import Frame

from conftest import needs_cc
from test_frames import every_colour_frames, half_turn_frames, noisy_clip


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
def test_a_library_is_built_per_machine(monkeypatch, tmp_path, compiles):
    # interpreters of one Python version on two machines can share a checkout,
    # and neither can load the other's library
    source, cache = tmp_path / "pass.c", tmp_path / "cache"
    shutil.copy(frames._SOURCE, source)
    assert frames._build(str(source), str(cache)) is not None
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
        ".cpython-311-riscv64-linux-gnu.so" if name == "EXT_SUFFIX" else config_var(name)))
    assert frames._build(str(source), str(cache)) is not None
    assert len(compiles) == 2
    assert len(libraries(cache)) == 2  # a second library beside the first


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


@needs_cc
@pytest.mark.skipif(platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
                    reason="the AVX2 body is built on x86-64 glibc only")
def test_an_avx2_body_is_built_beside_the_plain_one_unless_compiled_out(monkeypatch, tmp_path):
    dispatched, plain = tmp_path / "dispatched", tmp_path / "plain"
    assert frames._build(frames._SOURCE, str(dispatched)) is not None
    monkeypatch.setattr(frames, "_CFLAGS", frames._CFLAGS + ("-DFRAMESTATS_PLAIN",))
    assert frames._build(frames._SOURCE, str(plain)) is not None

    def library(folder):
        (path,) = folder.glob("*.so")
        return path.read_bytes()

    assert b"avx2" in library(dispatched)  # the clone's symbol
    assert b"avx2" not in library(plain)


# -- the sums of the changes, which the compiled pass takes itself ------------


def test_every_hue_table_entry_is_a_multiple_of_2_to_the_minus_26():
    # so every hue change, a float32 difference of two entries, or 256 less
    # one, taken on the shorter arc, is a multiple of 2**-26 in [0, 128]
    scaled = frames._hue_table().astype(np.float64) * 2.0**26
    assert np.array_equal(scaled, np.floor(scaled))
    assert scaled.min() >= 0 and scaled.max() < 256 * 2**26


def test_every_non_zero_saturation_is_at_least_one_half():
    # chroma / value * 255 in float32, for 1 <= chroma <= value <= 255; a
    # float32 in [0.5, 255] is a multiple of 2**-24, and so is every
    # saturation change
    chroma, value = np.meshgrid(np.arange(1, 256, dtype=np.float32),
                                np.arange(1, 256, dtype=np.float32), indexing="ij")
    sat = (chroma / value * np.float32(255.0))[chroma <= value]
    assert sat.dtype == np.float32
    assert sat.min() >= 0.5 and sat.max() <= 255.0


@pytest.fixture(params=["dispatched", "plain"])
def compiled_body(request, monkeypatch):
    """Run the compiled pass in the body this CPU picks, then in the plain one."""
    if request.param == "plain":
        kernel = request.getfixturevalue("plain_kernel")
    else:
        kernel = frames._kernel()
    monkeypatch.setattr(frames, "_kernel", lambda: kernel)


RED, CYAN, GREY = (255, 0, 0), (0, 255, 255), (128, 128, 128)


@needs_cc
@pytest.mark.parametrize("pixels, first, second, delta", [
    (2**20, RED, CYAN, 128 / 3),  # every hue turns by 128: a hue sum of 2**27
    (2**20 - 1, RED, CYAN, 128 / 3),
    (2**29 // 255 + 1, GREY, RED, 382 / 3),  # every saturation rises by 255: past 2**29
    (2**29 // 255, GREY, RED, 382 / 3),
], ids=["hue sum at its bound", "hue sum below it", "saturation sum past its bound",
        "saturation sum below it"])
def test_a_sum_at_its_bound_takes_the_numpy_delta(monkeypatch, compiled_body, pixels, first,
                                                  second, delta):
    # the bounds are those below which a float64 sum of the changes would be
    # exact in any order; the integer sums are exact on both sides of them
    clip = [Frame(0, bytes(first) * pixels), Frame(1, bytes(second) * pixels)]
    expected = numpy_stats(monkeypatch, clip)
    assert expected[1].hsv_delta == delta
    assert list(frames.stream_stats(clip)) == expected
