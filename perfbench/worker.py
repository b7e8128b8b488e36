"""Runs one workload's jobs in a fresh interpreter as a closed loop.

One client, one job at a time: a warm-up job, then whole passes over the
workload's job list until the requested seconds are used up (stopping at
the pass boundary nearest to them). Every job's artifacts are checked
against the fixture's ground truth and their sha256 digests compared with
earlier repetitions of the same job. The result is printed as one JSON line.

With ``--probes N`` the worker pauses N times, spread evenly over the timed
run and always between two jobs: it prints ``PROBE_REQUEST`` and waits for a
line on stdin, so that the parent can time a fresh interpreter's set-up
while nothing else runs. Paused time is not counted as run time.

    python3 perfbench/worker.py --src SRC --fixtures DIR --out DIR --seconds S [--probes N] [--trace FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import check
import spans
from fixtures import read_moods

MIN_TIMED_JOBS = 20  # enough for a tail percentile with ten jobs beyond it
PROBE_REQUEST = "perfbench:probe"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _path(folder: str, name):
    return None if name is None else os.path.join(folder, name)


def run_full(pipeline, job: dict, fixtures: str, out: str) -> dict:
    config = pipeline.PipelineConfig(
        source=_path(fixtures, job["source"]),
        detections=_path(fixtures, job["detections"]),
        melody=_path(fixtures, job["melody"]),
        mood=job["mood"], planner_mode=job["planner_mode"],
        complexity=job["complexity"], rng_seed=job["rng_seed"], output_dir=out,
    )
    pipeline.cmd_run(config)
    return {name: os.path.join(out, name) for name in ("scenes.json", "plan.ini", "soundtrack.mid")}


def run_rescore(pipeline, job: dict, fixtures: str, out: str) -> dict:
    config = pipeline.PipelineConfig(
        detections=_path(fixtures, job["detections"]),
        melody=_path(fixtures, job["melody"]),
        mood=job["mood"], planner_mode=job["planner_mode"],
        complexity=job["complexity"], rng_seed=job["rng_seed"], output_dir=out,
    )
    plan = pipeline.stage_plan(config, _path(fixtures, job["scenes"]))
    midi = pipeline.stage_compose(config, plan)
    return {"plan.ini": plan, "soundtrack.mid": midi}


def run_loop_mix(pipeline, job: dict, fixtures: str, out: str) -> dict:
    config = pipeline.PipelineConfig(
        stems=_path(fixtures, job["stems"]), loop_mode=True, output_dir=out
    )
    return {"soundtrack.wav": pipeline.stage_mix_loops(config, _path(fixtures, job["scenes"]))}


RUNNERS = {"full_run": run_full, "rescore": run_rescore, "loop_mix": run_loop_mix}


def check_job(job: dict, artifacts: dict, moods: dict) -> list:
    truth = job["truth"]
    if "soundtrack.wav" in artifacts:
        return check.check_wav(artifacts["soundtrack.wav"], truth)
    problems = []
    if "scenes.json" in artifacts:
        with open(artifacts["scenes.json"], "r", encoding="utf-8") as fh:
            problems += check.check_scenes(fh.read(), truth)
    mood = moods[job["mood"]]
    with open(artifacts["plan.ini"], "r", encoding="utf-8") as fh:
        plan_problems, sections = check.check_plan(fh.read(), job, mood)
    problems += plan_problems
    if not plan_problems:
        with open(artifacts["soundtrack.mid"], "rb") as fh:
            video_s = truth["total_frames"] * truth["fps"][1] / truth["fps"][0]
            problems += check.check_midi(fh.read(), sections, mood, video_s)
    return problems


def digest(artifacts: dict) -> dict:
    out = {}
    for name, path in sorted(artifacts.items()):
        sha = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        out[name] = sha.hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--trace")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import vidscore.pipeline as pipeline

    if not os.path.abspath(pipeline.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"worker: imported {pipeline.__file__}, not the checkout's", file=sys.stderr)
        return 2

    with open(os.path.join(args.fixtures, "jobs.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs, runner = spec["jobs"], RUNNERS[spec["workload"]]
    moods = read_moods(args.src)

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(pipeline, recorder, {
            os.path.abspath(os.path.join(args.fixtures, job["detections"])): job["truth"]["records"]
            for job in jobs if job.get("detections")
        })

    seen = {}  # slot -> artifact digests of its first successful run
    timed = []  # (wall s, cpu s, media s)
    tally = {"attempted": 0, "failed": 0}
    problems = []

    def attempt(job: dict):
        out = os.path.join(args.out, f"job{job['slot']:02d}")
        os.makedirs(out, exist_ok=True)
        tally["attempted"] += 1
        error = None
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        try:
            if recorder is None:
                artifacts = runner(pipeline, job, args.fixtures, out)
            else:
                recorder.open("job:run")
                try:
                    artifacts = runner(pipeline, job, args.fixtures, out)
                finally:
                    recorder.close()
        except Exception as exc:  # a failing job is counted, and the loop goes on
            error = [f"raised {type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if error is None:
            try:
                error = check_job(job, artifacts, moods)
                sums = digest(artifacts)
                if seen.setdefault(job["slot"], sums) != sums:
                    error.append("artifact digests differ from an earlier repetition")
            except Exception as exc:  # malformed output fails the job, not the run
                error = [f"checking output raised {type(exc).__name__}: {exc}"]
            for path in artifacts.values():  # drop dirty pages before writeback
                if os.path.exists(path):
                    os.remove(path)
        if error:
            tally["failed"] += 1
            problems.append(f"slot {job['slot']}: " + "; ".join(error))
        return wall, cpu

    attempt(jobs[0])  # warm-up
    if recorder is not None:
        recorder.reset()
    min_cycles = max(2, math.ceil(MIN_TIMED_JOBS / len(jobs)))
    probe_every = args.seconds / args.probes if args.probes else 0.0
    probes, paused = 0, 0.0
    cycles, started = 0, time.perf_counter()
    while True:
        for job in jobs:
            wall, cpu = attempt(job)
            timed.append((wall, cpu, job["media_s"]))
            now = time.perf_counter()
            if probes < args.probes and now - started - paused >= probes * probe_every:
                print(PROBE_REQUEST, flush=True)
                sys.stdin.readline()
                probes += 1
                paused += time.perf_counter() - now
        cycles += 1
        elapsed = time.perf_counter() - started - paused
        if cycles >= min_cycles and elapsed >= args.seconds - elapsed / cycles / 2:
            break

    result = {
        "cycles": cycles, "jobs_per_cycle": len(jobs),
        "attempted": tally["attempted"], "failed": tally["failed"],
        "problems": problems[:20], "job_s": [t[0] for t in timed],
        "cpu_s": [t[1] for t in timed], "media_s": [t[2] for t in timed],
    }
    if recorder is not None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            names = [entry["name"] for entry in json.load(fh)["per_layer"]]
        result["layers"] = spans.layer_metrics(recorder, cycles, names)
        recorder.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
