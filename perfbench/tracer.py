"""Span tracer that times calls into the public entry points of each stta layer.

`Tracer.installed()` replaces every entry point listed in `ENTRY_POINTS` at
each module or class binding the program calls it through, records one span
per call in memory, and puts every original object back when the block
ends. Code run outside the block executes the untouched functions.

A span is `(id, parent, root, name, start, end)`: `parent` is the span that
was open on the same thread when the call began (0 for none) and `root` is
the outermost open span of that thread, i.e. the batch or grid cell the call
belongs to. A few hooks count outcomes (insert decisions, rescoring, the
shrinkage dead zone) where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np
from stta import cli, datagen, engine, memory, model, normalization, numerics

SPAN_FIELDS = ("id", "parent", "root", "name", "start", "end")
# Layers whose calls happen inside Engine.process_batch.
SERVING_LAYERS = ("engine", "model", "numerics", "normalization", "memory")


def _forward_name(args, kwargs) -> str:
    source = args[2] if len(args) > 2 else kwargs.get("norm_source", "batch")
    return f"model.forward.{source}"


def _after_batch(tracer, args, record) -> None:
    tracer.count("engine.adapt.fired", int(record.adapted))
    tracer.count("engine.adapt.skipped", int(record.adapt_skipped))


def _after_insert(tracer, args, outcome) -> None:
    tracer.count("memory.insert.offered")
    if outcome.kind != "rejected_low_conf":
        tracer.count("memory.insert.accepted")
    if outcome.kind == "inserted_with_eviction":
        tracer.count("memory.insert.evicted")


def _after_rescore(tracer, args, rescored) -> None:
    mem, shift = args[0], args[1]
    tracer.count("memory.rescore.calls")
    tracer.count("memory.rescore.fired", int(shift > mem.tau_delta))
    tracer.count("memory.rescore.samples", rescored)


def _after_corrected(tracer, args, corrected) -> None:
    stored = args[0].memory_stats
    tracer.count("normalization.shrink.channels", stored.mean.size)
    tracer.count("normalization.shrink.mean_active", int(np.count_nonzero(corrected.mean != stored.mean)))
    tracer.count("normalization.shrink.var_active", int(np.count_nonzero(corrected.var != stored.var)))


# (owner, attribute, span name or name function, hook). Names imported with
# `from ... import` are listed once per module that binds them.
ENTRY_POINTS = (
    (engine.Engine, "process_batch", "engine.process_batch", _after_batch),
    (engine, "forward", _forward_name, None),
    (model, "forward", _forward_name, None),
    (engine, "adapt_step", "model.adapt_step", None),
    (model, "adapt_step", "model.adapt_step", None),
    (model, "entropy_loss", "model.entropy_loss", None),
    (cli, "pretrain", "model.pretrain", None),
    (model, "pretrain", "model.pretrain", None),
    (numerics, "backward", "numerics.backward", None),
    (numerics, "softmax", "numerics.softmax", None),
    (model, "normalize", "normalization.normalize", None),
    (normalization, "normalize", "normalization.normalize", None),
    (model, "batch_channel_stats", "normalization.batch_channel_stats", None),
    (normalization, "batch_channel_stats", "normalization.batch_channel_stats", None),
    (normalization, "corrected_stats", "normalization.corrected_stats", _after_corrected),
    (normalization.EmaNormState, "update", "normalization.ema_update", None),
    (memory.SampleMemory, "score", "memory.score", None),
    (memory.SampleMemory, "insert", "memory.insert", _after_insert),
    (memory.SampleMemory, "update_centroid", "memory.update_centroid", None),
    (memory.SampleMemory, "maybe_rescore", "memory.maybe_rescore", _after_rescore),
    (memory.SampleMemory, "batch", "memory.batch", None),
    (cli, "prepare_model", "cli.prepare_model", None),
    (cli, "run_cell", "cli.run_cell", None),
    (cli, "write_results", "cli.write_results", None),
    (cli, "sample_source", "datagen.sample_source", None),
    (datagen, "sample_source", "datagen.sample_source", None),
)
# Called ~10k times per stream pass: counted, not spanned.
COUNTED = ((memory, "wasserstein", "memory.wasserstein.calls"),)
# Generator functions: the time spent producing all their items is recorded.
GENERATORS = ((cli, "make_stream", "datagen.make_stream"), (datagen, "make_stream", "datagen.make_stream"))


def bindings() -> dict[tuple[int, str], object]:
    """Current object at every binding the tracer replaces, for identity checks."""
    points = [(o, a) for o, a, *_ in ENTRY_POINTS + COUNTED + GENERATORS]
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in points}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.generated: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, hook):
        tracer, spans, ids, clock = self, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else sid
            label = name if isinstance(name, str) else name(args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, root, label, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return counted

    def _generator(self, name, fn):
        clock, totals = time.perf_counter, self.generated[name]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            items = fn(*args, **kwargs)
            spent = 0.0
            while True:
                start = clock()
                try:
                    item = next(items)
                except StopIteration:
                    break
                finally:
                    spent += clock() - start
                yield item
            totals.append(spent)

        return timed

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, hook in ENTRY_POINTS:
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._span(name, vars(owner)[attr], hook))
            for owner, attr, key in COUNTED:
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._counted(key, vars(owner)[attr]))
            for owner, attr, name in GENERATORS:
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._generator(name, vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def p50(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def analyse(tracer: Tracer, repetitions: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the recorded spans and counts.

    Timings of the engine, model, numerics, normalization and memory layers
    count only calls made inside `Engine.process_batch`, so pretraining does
    not mix with serving and adaptation; `model.pretrain`, `cli.*` and
    `datagen.*` count every call. Counts are per repetition (one stream pass
    or one grid run). Returns (metrics, self-time check figures).
    """
    spans = sorted(tracer.spans)
    name_of = {s[0]: s[3] for s in spans}
    duration = {s[0]: s[5] - s[4] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    in_batch: dict[int, bool] = {}
    for sid, parent, _root, name, _start, _end in spans:
        child_time[parent] += duration[sid]
        in_batch[sid] = name == "engine.process_batch" or in_batch.get(parent, False)
    self_time = {sid: duration[sid] - child_time[sid] for sid in duration}

    durations: dict[str, list[float]] = defaultdict(list)   # inside process_batch
    anywhere: dict[str, list[float]] = defaultdict(list)
    for sid, parent, _root, name, _start, _end in spans:
        anywhere[name].append(duration[sid])
        if not in_batch[sid]:
            continue
        parent_name = name_of.get(parent, "")
        if name.startswith("model.forward."):
            if parent_name == "engine.process_batch":
                durations[name].append(duration[sid])
            elif parent_name == "model.adapt_step":
                durations["model.adapt_step.forward"].append(duration[sid])
        else:
            durations[name].append(duration[sid])

    batch_ids = [s[0] for s in spans if s[3] == "engine.process_batch"]
    root_total = sum(duration[sid] for sid in batch_ids)
    layer_self: Counter = Counter()
    update_time = upkeep_time = 0.0
    for sid, parent, _root, name, _start, _end in spans:
        if not in_batch[sid]:
            continue
        layer_self[name.split(".")[0]] += self_time[sid]
        if name_of.get(parent) == "engine.process_batch":
            if name in ("memory.batch", "model.adapt_step"):
                update_time += duration[sid]
            elif name.startswith("memory."):
                upkeep_time += duration[sid]

    counts, per_rep = tracer.counts, 1.0 / repetitions
    ms, us = 1e3, 1e6
    cells = [(s[4], s[5]) for s in spans if s[3] == "cli.run_cell"]
    metrics = {
        "engine.process_batch.self_p50_ms": p50([self_time[sid] for sid in batch_ids]) * ms,
        "engine.adapt.fired": counts["engine.adapt.fired"] * per_rep,
        "engine.adapt.skipped": counts["engine.adapt.skipped"] * per_rep,
        "model.adapt_step.p50_ms": p50(durations["model.adapt_step"]) * ms,
        "model.adapt_step.self_p50_ms": p50([self_time[s[0]] for s in spans
                                             if s[3] == "model.adapt_step" and in_batch[s[0]]]) * ms,
        "model.adapt_step.forward_p50_ms": p50(durations["model.adapt_step.forward"]) * ms,
        "model.entropy_loss.p50_ms": p50(durations["model.entropy_loss"]) * ms,
        "model.pretrain.s": p50(anywhere["model.pretrain"]),
        "numerics.backward.p50_ms": p50(durations["numerics.backward"]) * ms,
        "numerics.backward.calls": len(durations["numerics.backward"]) * per_rep,
        "numerics.softmax.p50_us": p50(durations["numerics.softmax"]) * us,
        "normalization.normalize.p50_us": p50(durations["normalization.normalize"]) * us,
        "normalization.corrected_stats.p50_us": p50(durations["normalization.corrected_stats"]) * us,
        "normalization.batch_channel_stats.calls": len(durations["normalization.batch_channel_stats"]) * per_rep,
        "normalization.batch_channel_stats.p50_us": p50(durations["normalization.batch_channel_stats"]) * us,
        "normalization.ema_update.p50_us": p50(durations["normalization.ema_update"]) * us,
        "memory.score.calls": len(durations["memory.score"]) * per_rep,
        "memory.score.p50_us": p50(durations["memory.score"]) * us,
        "memory.insert.p50_us": p50(durations["memory.insert"]) * us,
        "memory.insert.accept_ratio": _ratio(counts["memory.insert.accepted"], counts["memory.insert.offered"]),
        "memory.insert.evict_ratio": _ratio(counts["memory.insert.evicted"], counts["memory.insert.accepted"]),
        "memory.update_centroid.p50_us": p50(durations["memory.update_centroid"]) * us,
        "memory.maybe_rescore.p50_us": p50(durations["memory.maybe_rescore"]) * us,
        "memory.rescore.fire_ratio": _ratio(counts["memory.rescore.fired"], counts["memory.rescore.calls"]),
        "memory.rescore.samples": counts["memory.rescore.samples"] * per_rep,
        "memory.wasserstein.calls": counts["memory.wasserstein.calls"] * per_rep,
        "memory.batch.p50_us": p50(durations["memory.batch"]) * us,
        "memory.upkeep_share": _ratio(upkeep_time, root_total - update_time),
        "cli.prepare_model.s": p50(anywhere["cli.prepare_model"]),
        "datagen.sample_source.s": p50(anywhere["datagen.sample_source"]),
        "datagen.make_stream.s": p50(tracer.generated["datagen.make_stream"]),
    }
    for source in model.NORM_SOURCES:
        metrics[f"model.forward.{source}.p50_ms"] = p50(durations[f"model.forward.{source}"]) * ms
    if counts["normalization.shrink.channels"]:
        channels = counts["normalization.shrink.channels"]
        metrics["normalization.shrink.mean_active_share"] = counts["normalization.shrink.mean_active"] / channels
        metrics["normalization.shrink.var_active_share"] = counts["normalization.shrink.var_active"] / channels
    if cells:
        phase = max(end for _, end in cells) - min(start for start, _ in cells)
        metrics["cli.run_cell.p50_s"] = p50(anywhere["cli.run_cell"])
        metrics["cli.cells_phase_s"] = phase
        metrics["cli.pool.overlap"] = sum(end - start for start, end in cells) / phase
        metrics["cli.write_results.ms"] = p50(anywhere["cli.write_results"]) * ms
    for layer in SERVING_LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(layer_self[layer], root_total)
    check = {"root_seconds": root_total, "self_seconds": sum(layer_self.values()), "batches": len(batch_ids)}
    return {k: v for k, v in metrics.items() if not math.isnan(v)}, check


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan
