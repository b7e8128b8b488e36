"""vidscore benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload full_run --seed 1
    python3 perfbench/run.py --workload rescore --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload loop_mix --seed 1 --steadiness 5

Each run generates (or reuses) the seeded fixtures for the workload and
runs the jobs in one worker process of its own, so its peak RSS and CPU
time belong to that workload alone. The set-up time of fresh interpreters
is sampled while the worker pauses between jobs, spread over the run. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
an untraced and a traced worker for half the time each and prints the
per-layer metrics, including the tracing overhead. ``--steadiness N``
repeats the untraced run on N seeds and prints each metric's spread against
its bound in BENCHMARK.json. The last line of every single-workload run is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import fixtures
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
SETUP_PROBES = 16  # spread over the timed run, between jobs
KEEP_TRACES = 6


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def probe_setup() -> float:
    """Seconds from spawning a fresh interpreter until vidscore is ready."""
    spawned = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return float(out.split()[-1]) - spawned


def run_worker(fixture_dir: str, seconds: float, trace_path=None, probes: int = 0) -> tuple:
    """Run one worker process; returns (its result, its peak RSS in MB, the
    set-up probe samples timed while it paused)."""
    out_dir = os.path.join(CACHE, "out", f"{os.path.basename(fixture_dir)}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
           "--fixtures", fixture_dir, "--out", out_dir, "--seconds", str(seconds),
           "--probes", str(probes)]
    if trace_path:
        cmd += ["--trace", trace_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(3 * seconds + 60, proc.kill)
    watchdog.start()
    lines, samples = [], []
    try:
        for line in proc.stdout:
            if line.decode().strip() != worker.PROBE_REQUEST:
                lines.append(line)
                continue
            samples.append(probe_setup())
            proc.stdin.write(b"\n")
            proc.stdin.flush()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1].decode()), usage.ru_maxrss / 1024.0, samples


def tail(values: list) -> tuple:
    """(p, value) for the highest whole percentile with >= 10 jobs beyond it,
    by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} jobs are too few for a tail percentile")


def per_pass(result: dict, key: str) -> float:
    """Sum over the job slots of each slot's median over the passes: one
    pass's worth, robust to a single disturbed job."""
    size = result["jobs_per_cycle"]
    return sum(statistics.median(result[key][slot::size]) for slot in range(size))


def throughput(result: dict) -> float:
    return per_pass(result, "media_s") / per_pass(result, "job_s")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run: metrics by name, plus the counts and report lines."""
    fixture_dir = fixtures.ensure(CACHE, SRC, workload, seed)
    if traced:
        plain, _, _ = run_worker(fixture_dir, seconds / 2)
        trace_path = os.path.join(CACHE, "traces", f"{workload}-{seed}.json")
        result, _, _ = run_worker(fixture_dir, seconds / 2, trace_path)
        _evict_traces()
        metrics = dict(result["layers"])
        metrics["trace.media_s_per_s"] = throughput(result)
        metrics["trace.overhead_ratio"] = throughput(plain) / throughput(result) - 1.0
        runs = (plain, result)
        notes = {"trace.job.s": f"per pass of {result['jobs_per_cycle']} jobs; spans in "
                                f"{os.path.relpath(trace_path, ROOT)}"}
    else:
        result, peak_mb, setup = run_worker(fixture_dir, seconds, probes=SETUP_PROBES)
        setup += [probe_setup() for _ in range(SETUP_PROBES - len(setup))]
        p, tail_s = tail(result["job_s"])
        n = len(result["job_s"])
        metrics = {
            "media_s_per_s": throughput(result),
            "job_s.p50": statistics.median(result["job_s"]),
            "job_s.tail": tail_s,
            "cpu_s_per_media_s": per_pass(result, "cpu_s") / per_pass(result, "media_s"),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup),
        }
        runs = (result,)
        notes = {"job_s.p50": f"n={n}", "job_s.tail": f"p{p}, n={n}",
                 "setup_s": f"median of {len(setup)} fresh interpreters spread over the run"}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "cycles": result["cycles"],
            "jobs_per_cycle": result["jobs_per_cycle"],
            "problems": [p for r in runs for p in r["problems"]]}


def _evict_traces() -> None:
    folder = os.path.join(CACHE, "traces")
    paths = sorted((os.path.join(folder, name) for name in os.listdir(folder)),
                   key=os.path.getmtime, reverse=True)
    for stale in paths[KEEP_TRACES:]:
        os.remove(stale)


def report(run: dict, declared: list) -> dict:
    """Print the human-readable lines and return the contract's JSON object."""
    print(f"{run['workload']} seed {run['seed']}: {run['cycles']} passes of "
          f"{run['jobs_per_cycle']} jobs, {run['failed']} of {run['attempted']} failed")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = run["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        note = run["notes"].get(name)
        print(f"  {name:<28} {value:14.6f} {unit}" + (f"  ({note})" if note else ""))
    ratio = run["failed"] / run["attempted"]
    print(f"  {'fail_ratio':<28} {ratio:14.6f} failed/attempted  "
          f"({run['failed']}/{run['attempted']})")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def steadiness(workloads: list, seed: int, count: int, seconds: float, spec: dict) -> None:
    """Repeat each workload on `count` seeds; print each end-to-end metric's
    quartile spread as a share of its median, against its bound."""
    for workload in workloads:
        values = {entry["name"]: [] for entry in spec["end_to_end"]}
        for offset in range(count):
            run = measure(workload, seed + offset, seconds, traced=False)
            report(run, spec["end_to_end"])
            for name in values:
                values[name].append(run["metrics"][name])
        print(f"steadiness of {workload} over seeds {seed}..{seed + count - 1}:")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for entry in spec["end_to_end"]:
            vals = values[entry["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            verdict = ("steady" if spread < entry["bound"] / 3 else
                       "within bound" if spread <= entry["bound"] else "TOO WIDE")
            print(f"  {entry['name']:<20} {median:12.6f} {spread:8.4f} "
                  f"{entry['bound']:6.3f}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=fixtures.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="repeat on N seeds and print spreads against the bounds")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "vidscore", "pipeline.py")):
        print(f"perfbench: no vidscore sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = list(fixtures.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steadiness:
        steadiness(workloads, args.seed, args.steadiness, seconds, spec)
        return 0
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {w: report(measure(w, args.seed, seconds, bool(args.trace)), declared)
               for w in workloads}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
