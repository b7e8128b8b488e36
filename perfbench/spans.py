"""Span recorder for the traced run, attached from outside the program.

``install`` replaces the module-level names that ``vidscore.pipeline``'s
stages call with wrappers that open a span around each call. Spans (name,
start, end, parent) and counters stay in memory and are written out when
the run ends. The frame iterator and the ``stream_stats`` generator are
wrapped per item, so reading frames and computing their statistics get
separate self times.

A span's name is ``<layer>:<function>``; a layer's self time is the summed
duration of its spans minus the time their child spans cover, and its
per-layer metric is ``<layer>.s``. Stage functions belong to the
``pipeline.self`` layer. The per-job root span is a layer of its own
(``job``) that no metric reports, so time a job spends outside every stage
shows as the gap between the summed self times and the traced job time.
Which layers and counters are reported is read from BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# pipeline name -> layer whose self time its span feeds
LAYER_OF = {
    "open_frame_source": "frames.read",
    "fps_fraction": "frames.read",
    "stream_stats": "frames.stats",
    "detect_scenes": "scenes.detect",
    "scenes_to_json": "scenes.io",
    "scenes_from_json": "scenes.io",
    "load_detections": "energy.detections",
    "classify_energy": "energy.classify",
    "choose_direction_slope": "energy.classify",
    "assign_tempo_band": "energy.classify",
    "sections_from_scenes": "planner.fits",
    "fit_tolerance": "planner.fits",
    "enumerate_fits": "planner.fits",
    "harmonize_tempo": "planner.harmonize",
    "finalize_plan": "planner.finalize",
    "plan_to_ini": "planner.ini",
    "parse_ini": "planner.ini",
    "resolve_plan": "planner.ini",
    "iter_ini": "planner.ini",
    "load_mood": "moods.load",
    "compose_plan": "composer.compose",
    "score_debug_dump": "composer.compose",
    "load_seed_melody": "midi.read",
    "read_smf": "midi.read",
    "write_smf": "midi.write",
    "load_stem_manifest": "loops.read",
    "build_layer_schedule": "loops.schedule",
    "mix_stems": "loops.mix",
    "write_wav": "loops.write",
    "stage_analyze": "pipeline.self",
    "stage_plan": "pipeline.self",
    "stage_compose": "pipeline.self",
    "stage_mix_loops": "pipeline.self",
    "stage_render": "pipeline.self",
    "stage_mux": "pipeline.self",
    "cmd_run": "pipeline.self",
}
IMAP_LAYER = "midi.imap"  # InstrumentMap.default / InstrumentMap.from_file
FITS_SPAN = "planner.fits:enumerate_fits"


class Recorder:
    """In-memory spans and counters for one single-threaded process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counters = defaultdict(int)
        self._stack = []  # (id, name, start) of the open spans
        self._next_id = 0

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, name, start, end, parent))

    def innermost(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def self_times(self) -> dict:
        """Self seconds summed per layer, and the summed root-span time."""
        covered = defaultdict(float)
        for _id, _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers, roots = defaultdict(float), 0.0
        for span_id, name, start, end, parent in self.spans:
            layers[name.partition(":")[0]] += end - start - covered[span_id]
            if parent < 0:
                roots += end - start
        return {"layers": dict(layers), "root_s": roots}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counters": self.counters}, fh)


class TracedIter:
    """Iterator wrapper opening one span per item."""

    def __init__(self, recorder: Recorder, inner, name: str, on_item=None):
        self._recorder, self._inner, self._name, self._on_item = recorder, inner, name, on_item

    def __iter__(self):
        return self

    def __next__(self):
        self._recorder.open(self._name)
        try:
            item = next(self._inner)
        finally:
            self._recorder.close()
        if self._on_item is not None:
            self._on_item(item)
        return item


def _wrap(recorder: Recorder, fn, name: str, after=None):
    def traced(*args, **kwargs):
        recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close()
        return result if after is None else after(result, args)
    traced.__wrapped__ = fn
    return traced


def install(pipeline, recorder: Recorder, records_by_path: dict) -> None:
    """Wrap vidscore.pipeline's module-level names for the traced run.

    ``records_by_path`` gives the record count of each detections file, which
    the generator knows; load_detections returns only per-scene means, so
    ``energy.detections.records`` counts the records handed to it, not the
    ones it processed. ``planner.fits.tried`` counts the candidates
    enumerate_fits prices, as its calls to ``planner.phrase_seconds``.
    """
    rec = recorder

    def counted(name, amount_of):
        def after(result, args):
            rec.count(name, amount_of(result, args))
            return result
        return after

    def frames_source(source, _args):
        rec.count("frames.open.calls", 1)
        on_frame = lambda frame: rec.count("frames.read.bytes", len(frame.pixels))
        frames = TracedIter(rec, iter(source), "frames.read:next_frame", on_frame)
        return type(source)(source.spec, source.total_frames, frames)

    def stats_stream(stats, _args):
        on_stat = lambda _stat: rec.count("frames.stats.frames", 1)
        return TracedIter(rec, iter(stats), "frames.stats:next_stats", on_stat)

    def notes(score, _args):
        rec.count("composer.compose.notes", sum(
            len(events) for section in score.sections for events in section.events.values()))
        return score

    after = {
        "open_frame_source": frames_source,
        "stream_stats": stats_stream,
        "detect_scenes": counted("scenes.detect.scenes", lambda r, a: len(r)),
        "load_detections": counted("energy.detections.records",
                                   lambda r, a: records_by_path.get(os.path.abspath(a[0]), 0)),
        "enumerate_fits": counted("planner.fits.kept", lambda r, a: len(r)),
        "load_mood": counted("moods.load.calls", lambda r, a: 1),
        "compose_plan": notes,
        "write_smf": counted("midi.write.bytes", lambda r, a: len(r)),
        "load_stem_manifest": counted("loops.read.bytes",
                                      lambda r, a: sum(s.samples.nbytes for s in r)),
        "mix_stems": counted("loops.mix.samples", lambda r, a: int(r.size)),
        "write_wav": counted("loops.write.bytes", lambda r, a: os.path.getsize(a[0])),
    }
    for name, layer in LAYER_OF.items():
        fn = getattr(pipeline, name, None)
        if fn is None:
            print(f"trace: vidscore.pipeline has no {name}; its layer reads 0", file=sys.stderr)
            continue
        setattr(pipeline, name, _wrap(rec, fn, f"{layer}:{name}", after.get(name)))

    from vidscore import planner
    phrase_seconds = planner.phrase_seconds

    def priced(*args, **kwargs):
        if rec.innermost() == FITS_SPAN:
            rec.count("planner.fits.tried", 1)
        return phrase_seconds(*args, **kwargs)
    planner.phrase_seconds = priced

    imap = pipeline.InstrumentMap
    pipeline.InstrumentMap = type("InstrumentMap", (), {
        "default": staticmethod(_wrap(rec, imap.default, f"{IMAP_LAYER}:default")),
        "from_file": staticmethod(_wrap(rec, imap.from_file, f"{IMAP_LAYER}:from_file")),
    })


def layer_metrics(recorder: Recorder, cycles: int, names) -> dict:
    """The named per-layer figures for one pass over the job list (totals /
    cycles): ``<layer>.s`` is a layer's self time, any other name a counter.
    ``trace.media_s_per_s`` and ``trace.overhead_ratio`` need an untraced
    run too and are left to the caller."""
    times = recorder.self_times()
    counters = recorder.counters
    tried = counters.get("planner.fits.tried", 0)
    derived = {
        "planner.fits.hit_ratio": counters.get("planner.fits.kept", 0) / tried if tried else 0.0,
        "trace.job.s": times["root_s"] / cycles,
        "trace.spans": len(recorder.spans) / cycles,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.startswith("trace."):
            continue
        elif name.endswith(".s"):
            metrics[name] = times["layers"].get(name[:-2], 0.0) / cycles
        else:
            metrics[name] = counters.get(name, 0) / cycles
    job_s = derived["trace.job.s"]
    accounted = sum(v for k, v in metrics.items() if k.endswith(".s") and not k.startswith("trace."))
    metrics["trace.accounted_ratio"] = accounted / job_s if job_s else 0.0
    return metrics
