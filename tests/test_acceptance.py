"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The detector fixtures here are full 640x360 at 30 fps; the generated raw
streams run to a few hundred MB in the pytest tmp area.
"""

import functools
import random
import statistics
import sys
import time

import numpy as np

from vidscore import cli
from vidscore.composer import compose_plan
from vidscore.energy import (
    DirectionSlope,
    EnergyLabel,
    choose_direction_slope,
    classify_energy,
)
from vidscore.frames import open_frame_source, stream_stats
from vidscore.loops import Stem, build_layer_schedule, mix_stems, write_wav
from vidscore.midi import InstrumentMap, read_smf, write_smf
from vidscore.moods import load_mood, list_moods
from vidscore.planner import (
    enumerate_fits,
    finalize_plan,
    fit_tolerance,
    harmonize_tempo,
    phrase_seconds,
    parse_ini,
    plan_to_ini,
    resolve_plan,
)
from vidscore.scenes import (
    DetectorConfig,
    detect_scenes,
    detect_transitions,
    scenes_from_json,
    scenes_to_json,
)

from conftest import (
    CUT_SAFE_COLORS,
    VideoBuilder,
    doc_duration_s,
    doc_tempos,
    random_valid_plan,
)
from test_midi import document_notes, score_notes
from test_planner import brute_force_fits


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number}] FAIL  {description}")
                raise
            print(f"\n[criterion {number}] PASS  {description}")
            return result
        return wrapper
    return decorate


@criterion(1, "detector fidelity on synthetic 640x360 fixtures")
def test_detector_fidelity(tmp_path):
    # hard cuts need saturation or value contrast; the fade region must stay
    # achromatic so the dip to black moves only the value channel
    builder = VideoBuilder(width=640, height=360, fps=(30, 1))
    injected_cuts = []
    builder.add_run((245, 245, 245), 80)
    injected_cuts.append(builder.total_frames)
    builder.add_run((55, 55, 55), 80)
    injected_cuts.append(builder.total_frames)
    builder.add_run((220, 40, 40), 60)
    injected_cuts.append(builder.total_frames)
    builder.add_run((120, 120, 120), 20)
    builder.add_fade(level=120, ramp_steps=10, black_frames=6)
    assert builder.total_frames < 300
    builder.add_run((120, 120, 120), 300 - builder.total_frames)
    assert builder.total_frames == 300

    # fixture validity: injected cuts carry per-frame HSV delta >= 60, the
    # fade contains >= 5 all-black frames, and nothing else crosses a threshold
    deltas = builder.deltas()
    for frame in injected_cuts:
        assert deltas[frame] >= 60.0
    for i, delta in enumerate(deltas):
        if delta is not None and i not in injected_cuts:
            assert delta < 30.0
    injected_fades = builder.expected_fades(threshold=12.0)
    assert len(injected_fades) == 1
    fade_start, fade_end = injected_fades[0]
    assert fade_end - fade_start >= 5
    assert all(v == 0.0 for v in builder.intensities()[fade_start:fade_end])

    source_path = builder.write(tmp_path)
    config = DetectorConfig()  # the default thresholds: fade 12, cut 30

    started = time.perf_counter()
    source = open_frame_source(source_path)
    stats = list(stream_stats(source))
    cuts, fades = detect_transitions(stats, config)
    scenes = detect_scenes(stats, 300, source.spec, config)
    elapsed = time.perf_counter() - started

    assert cuts == injected_cuts  # recall 100%, false positives 0, exact frames
    assert fades == [(fade_start, fade_end)]  # threshold-crossing rule, exact
    boundary = (fade_start + fade_end) // 2
    assert [s.start_frame for s in scenes] == [0] + injected_cuts + [boundary]
    assert elapsed < 5.0, f"detection took {elapsed:.2f} s on 300 frames"
    print(f"\n  detection pass over 300 frames of 640x360: {elapsed:.2f} s")


@criterion(2, "duration solver matches brute force; plans land on target")
def test_solver_correctness():
    rng = random.Random(20_0)
    moods = {name: load_mood(name) for name in list_moods()}
    for _ in range(200):
        mood = moods[rng.choice(sorted(moods))]
        duration = rng.uniform(5.0, 120.0)
        assert enumerate_fits(duration, mood, 0.010) == brute_force_fits(
            duration, mood, 0.010
        )

    # plans built from scene-like durations: per-section error <= 10 ms and the
    # whole plan lands within one frame period of the video duration
    frame_period = 1.0 / 30.0
    tolerance = fit_tolerance(frame_period)
    for trial in range(20):
        mood = moods[rng.choice(sorted(moods))]
        tempo = rng.randint(*mood.tempo_range)
        durations = []
        for _ in range(rng.randint(2, 5)):
            signature = rng.choice(sorted(mood.time_signatures))
            phrases = rng.randint(1, 3)
            durations.append(
                phrases * phrase_seconds(tempo, signature, mood.phrase_length_bars)
            )
        fits = harmonize_tempo(
            [enumerate_fits(d, mood, tolerance) for d in durations], rng_seed=trial
        )
        plan = finalize_plan(
            durations,
            fits,
            [EnergyLabel.MEDIUM] * len(durations),
            [DirectionSlope("up", "stay")] * len(durations),
            mood.name,
            "simple",
            rng_seed=trial,
        )
        realized = [
            s.phrases * phrase_seconds(s.tempo, s.time_signature, mood.phrase_length_bars)
            for s in plan.sections
        ]
        for section, r in zip(plan.sections, realized):
            assert abs(r - section.duration_s) <= 0.010
        assert abs(sum(realized) - plan.total_duration_s) <= frame_period


@criterion(3, "energy labels match a mean/std oracle; affine invariant")
def test_energy_classification():
    rng = random.Random(30_0)
    vectors = [[5], [7, 7, 7, 7]]  # degenerate: single element, all equal
    while len(vectors) < 1000:
        n = rng.randint(1, 30)
        vectors.append([rng.randint(0, 60) for _ in range(n)])

    for values in vectors:
        counts = dict(enumerate(values))
        labels = classify_energy(counts)
        mu = statistics.fmean(values)
        sigma = statistics.pstdev(values)
        for key, value in counts.items():
            if sigma == 0:
                expected = EnergyLabel.MEDIUM
            elif value < mu - sigma:
                expected = EnergyLabel.LOW
            elif value >= mu + sigma:
                expected = EnergyLabel.HIGH
            else:
                expected = EnergyLabel.MEDIUM
            assert labels[key] == expected, (values, key)

        a, b = rng.randint(1, 7), rng.randint(0, 40)
        rescaled = classify_energy({k: a * v + b for k, v in counts.items()})
        assert sorted(l.value for l in rescaled.values()) == sorted(
            l.value for l in labels.values()
        )


@criterion(4, "direction/slope decision table exhaustive over label pairs")
def test_direction_slope_table():
    L, M, H = EnergyLabel.LOW, EnergyLabel.MEDIUM, EnergyLabel.HIGH
    table = {
        (L, L): ("up", "stay"), (L, M): ("up", "gradual"), (L, H): ("up", "steep"),
        (M, L): ("down", "gradual"), (M, M): ("up", "stay"), (M, H): ("up", "gradual"),
        (H, L): ("down", "steep"), (H, M): ("down", "gradual"), (H, H): ("up", "stay"),
    }
    for (current, nxt), expected in table.items():
        chosen = choose_direction_slope([current, nxt])[0]
        assert (chosen.direction, chosen.slope) == expected
    # final scene: compares against its own energy, so always (up, stay)
    for label in (L, M, H):
        tail = choose_direction_slope([M, H, label])[-1]
        assert (tail.direction, tail.slope) == ("up", "stay")


@criterion(5, "SMF round-trip integrity over 100 seeded plans")
def test_midi_integrity():
    rng = random.Random(50_0)
    imap = InstrumentMap.default()
    for _ in range(100):
        plan = random_valid_plan(rng)
        score = compose_plan(plan, load_mood(plan.mood))
        data = write_smf(score, imap)
        assert data == write_smf(score, imap)  # byte determinism

        doc = read_smf(data)
        assert document_notes(doc) == score_notes(score)
        expected_tempos = [
            (tick, round(60_000_000 / bpm)) for tick, bpm in score.tempo_map
        ]
        assert doc_tempos(doc) == expected_tempos
        slowest_tick_s = 60.0 / (480 * min(s.tempo for s in plan.sections))
        assert abs(doc_duration_s(doc) - plan.total_duration_s) <= slowest_tick_s


@criterion(6, "loop schedule unimodality and mixed WAV output contract")
def test_loop_schedule_and_mix(tmp_path):
    from test_loops import scene_run, stems_n

    for n_scenes in range(1, 51):
        scenes = scene_run([2.0] * n_scenes)
        for n_stems in range(1, 9):
            schedule = build_layer_schedule(scenes, stems_n(n_stems))
            counts = [len(active) for active in schedule]
            mid_lo, mid_hi = (n_scenes - 1) // 2, n_scenes // 2
            peak = max(counts)
            assert counts[mid_lo] == peak and counts[mid_hi] == peak
            for i in range(1, len(counts)):
                step = counts[i] - counts[i - 1]
                assert step in (-1, 0, 1)
                if i <= mid_lo:
                    assert step >= 0
                if i > mid_hi:
                    assert step <= 0
            assert peak <= n_stems and min(counts) >= 1

    rate = 8000
    ceiling = int(round(32767 * 10 ** (-1.0 / 20.0)))
    rng = np.random.default_rng(6)
    stems = [
        Stem(
            label=f"s{i}",
            samples=rng.integers(-32768, 32767, size=(rate, 1)).astype(np.int16),
            sample_rate=rate,
            activation_rank=i + 1,
        )
        for i in range(3)
    ]
    scenes = scene_run([1.25, 0.5, 2.0])
    schedule = build_layer_schedule(scenes, stems)
    track = mix_stems(schedule, scenes, stems)
    assert len(track) == round(3.75 * rate)  # video seconds x sample rate
    assert int(np.abs(track.astype(np.int32)).max()) == ceiling
    write_wav(str(tmp_path / "looped.wav"), track, rate)


@criterion(7, "analyze->plan->compose on a 60 s fixture under the time bound")
def test_end_to_end_performance(tmp_path):
    builder = VideoBuilder(width=320, height=180, fps=(30, 1))
    for color in CUT_SAFE_COLORS[:4]:
        builder.add_run(color, 450)  # 3 transitions, 60 s total
    assert builder.total_frames == 1800
    source = builder.write(tmp_path)
    outdir = str(tmp_path)

    started = time.perf_counter()
    assert cli.main(["analyze", "--source", source, "--output-dir", outdir]) == 0
    assert cli.main([
        "plan", "--scenes", f"{outdir}/scenes.json", "--output-dir", outdir,
        "--seed", "11",
    ]) == 0
    assert cli.main([
        "compose", "--plan", f"{outdir}/plan.ini", "--output-dir", outdir,
    ]) == 0
    elapsed = time.perf_counter() - started

    doc = read_smf(open(f"{outdir}/soundtrack.mid", "rb").read())
    assert abs(doc_duration_s(doc) - 60.0) < 0.1
    assert elapsed < 60.0, f"chain took {elapsed:.1f} s"
    target_note = "" if elapsed < 10.0 else " (above the 10 s stretch target)"
    print(f"\n  analyze+plan+compose on 60 s video: {elapsed:.2f} s{target_note}")


@criterion(8, "interchange files round-trip; errors map to documented exits")
def test_interchange_stability(tmp_path):
    # scenes.json: serialize/parse identity on a detector-produced list
    builder = VideoBuilder(width=64, height=36, fps=(30, 1))
    builder.add_run(CUT_SAFE_COLORS[0], 100).add_run(CUT_SAFE_COLORS[1], 80)
    builder.add_fade(level=120)
    builder.add_run((120, 120, 120), 60)
    source = builder.write(tmp_path)
    src = open_frame_source(source)
    scenes = detect_scenes(
        stream_stats(src), builder.total_frames, src.spec, DetectorConfig()
    )
    text = scenes_to_json(scenes, (30, 1), builder.total_frames)
    parsed, fps, total = scenes_from_json(text)
    assert parsed == scenes and fps == (30, 1) and total == builder.total_frames
    assert scenes_to_json(parsed, fps, total) == text

    # plan.ini: parse(serialize) identity across random valid plans
    rng = random.Random(80_0)
    for _ in range(25):
        plan = random_valid_plan(rng)
        assert resolve_plan(parse_ini(plan_to_ini(plan))) == plan

    # documented exit codes on malformed inputs
    outdir = str(tmp_path)
    assert cli.main(["analyze", "--source", f"{outdir}/absent.rgb24",
                     "--output-dir", outdir]) == 2
    bad_scenes = tmp_path / "bad_scenes.json"
    bad_scenes.write_text("{not json")
    assert cli.main(["plan", "--scenes", str(bad_scenes),
                     "--output-dir", outdir]) == 2
    bad_plan = tmp_path / "bad_plan.ini"
    bad_plan.write_text("[composition]\nmood inspire\n")
    assert cli.main(["compose", "--plan", str(bad_plan),
                     "--output-dir", outdir]) == 3
    gapped = tmp_path / "gapped.ini"
    gapped.write_text(
        "[composition]\nduration = 20.0\nmood = inspire\n"
        "complexity = simple\nseed = 1\n"
        "[section1]\ntime_sig = 4/4\ntempo = 96\nenergy = medium\n"
        "duration = 20.0\ndirection = up\nslope = stay\n"
    )
    assert cli.main(["compose", "--plan", str(gapped),
                     "--output-dir", outdir]) == 3
    (tmp_path / "in.mid").write_bytes(b"x")
    failing = f'{sys.executable} -c "import sys; sys.exit(3)" {{in}} {{out}}'
    assert cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                     "-o", f"{outdir}/out.wav", "--render-template", failing,
                     "--output-dir", outdir]) == 5
    assert cli.main(["render", "--midi", str(tmp_path / "in.mid"),
                     "-o", f"{outdir}/out.wav", "--output-dir", outdir]) == 6
