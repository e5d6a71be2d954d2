"""The benchmark's workloads: three closed-loop streams and the `stta run` grid.

Stream workloads pretrain a source model and generate a whole stream for
each of the run's seeds before timing starts, then feed the batches to
`Engine.process_batch` one at a time from a single caller, each as soon as
the previous call returns, in one process with no extra threads. Every
pass over a stream starts from a fresh clone of its pretrained model, so
passes over one stream are repeats of one deterministic computation. The
grid workload runs `stta run` in-process from a fresh temporary directory.
See README.md for why each workload exists and what each metric means.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import yaml
from stta import cli, datagen, engine, model

import tracer as tracing

BATCH_SIZE = 16
SETUP_REPEATS = 3  # grid: model preparations per run
STREAMS_PER_RUN = 3  # stream workloads: seeds (pretrained models and streams) per run
MIN_PASSES = 2
GRID_WORKERS = 2
GRID_MODES = ("snap", "ema", "tent-equivalent", "source-only")
GRID_RATES = ("0.1", "1.0")
GRID_CELLS = 14  # 7 (mode, rate) cells x 2 seeds; source-only pins its rate to 0


@dataclass(frozen=True)
class StreamWorkload:
    mode: str                     # `stta run` mode preset
    ar: Fraction
    capacity: int
    corruptions: tuple[str, ...]  # one segment per corruption preset
    batches: int                  # stream length

    def engine_config(self, cfg: dict, seed: int) -> engine.EngineConfig:
        engine_cfg = dict(cfg["engine"], capacity=self.capacity)
        return cli.engine_config_for(self.mode, self.ar, engine_cfg, seed, BATCH_SIZE)

    def stream_spec(self, seed: int) -> datagen.StreamSpec:
        per_segment = self.batches // len(self.corruptions)
        return datagen.continual_stream(self.corruptions, per_segment, BATCH_SIZE, seed)


CONTINUAL = ("scale_strong", "noise", "offset")
# A dense-tent batch costs about twice a sparse-snap batch, so its streams
# are shorter: each of them then gets at least as many passes in a run.
STREAMS = {
    "sparse-snap": StreamWorkload("snap", Fraction(1, 10), BATCH_SIZE, CONTINUAL, 300),
    "dense-tent": StreamWorkload("tent-equivalent", Fraction(1), BATCH_SIZE, ("noise",), 100),
    "big-memory": StreamWorkload("snap", Fraction(1, 10), 256, CONTINUAL, 300),
}


@dataclass
class Outcome:
    """Operations attempted and failed, checks by name, and the metrics."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, dict] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    tracer: tracing.Tracer | None = None  # the traced repetitions' spans

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "detail": ""})
        entry["passed" if ok else "failed"] += 1
        if not ok and not entry["detail"]:
            entry["detail"] = detail
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["failed"] == 0 for c in self.checks.values())


def expected_adapts(batches: int, ar) -> int:
    """Updates the exact scheduler must fire over `batches` batches: floor(B * ar)."""
    return math.floor(batches * Fraction(ar))


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def tail_percentile(values) -> tuple[float, int]:
    """Highest percentile (at most p99) with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    pct = min(99, math.floor(100 * (n - 10) / n)) if n > 10 else 100
    return ordered[max(0, math.ceil(pct * n / 100) - 1)], pct


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# stream workloads


def setup_stream(workload: StreamWorkload, cfg: dict, seed: int):
    """Pretrain the source model and materialize the stream; returns the set-up time."""
    start = time.perf_counter()
    base = cli.prepare_model(cfg, seed, None)
    batches = list(datagen.make_stream(workload.stream_spec(seed)))
    seconds = time.perf_counter() - start
    fingerprint = digest({
        "model": model.model_dict(base),
        "stream": hashlib.sha256(b"".join(b.x.data.tobytes() + b.labels.tobytes() for b in batches)).hexdigest(),
    })
    return base, batches, seconds, fingerprint


@dataclass
class Pass:
    records: list
    latencies: list[float]
    engine: engine.Engine
    error: str = ""


def stream_pass(base: model.Model, config: engine.EngineConfig, batches) -> Pass:
    """One closed-loop pass: feed each batch when the previous call returns."""
    fresh = base.clone()
    fresh.reset_inference_stats()
    records, latencies, error = [], [], ""
    clock = time.perf_counter
    eng = engine.Engine(fresh, config)
    for b in batches:
        t0 = clock()
        try:
            record = eng.process_batch(b.x, b.labels, b.segment)
        except Exception as exc:  # counted as a failed batch; the pass stops there
            error = f"batch {len(records)}: {exc!r}"
            break
        latencies.append(clock() - t0)
        records.append(record)
    return Pass(records, latencies, eng, error)


def check_pass(p: Pass, workload: StreamWorkload, batches, out: Outcome) -> str:
    """Run the correctness checks of one pass; returns its deterministic digest."""
    records = p.records
    out.attempted += len(records) + (1 if p.error else 0)
    out.check("batch.raised", not p.error, p.error)
    over = [r.index for r in records if r.memory_size > workload.capacity]
    out.check("memory.capacity", not over, f"memory above capacity {workload.capacity} after batches {over[:5]}")
    bad = [r.index for r in records if r.correct is None or not 0 <= r.correct <= r.size]
    out.check("batch.predictions", not bad, f"correct-count outside [0, size] at batches {bad[:5]}")
    metrics = engine.RunMetrics(records)
    want = expected_adapts(len(batches), workload.ar)
    got = metrics.adapt_count + metrics.skipped_adaptations
    pass_ok = out.check("adapt.count", got == want, f"adapt_count + skipped = {got}, want floor(B*ar) = {want}")
    pass_ok &= out.check("logits.finite", _final_logits_ok(p.engine, batches[-1].x),
                         "non-finite logits or wrong class count after the pass")
    pass_ok &= not p.error and len(records) == len(batches)
    out.failed += len(records) + (1 if p.error else 0) if not pass_ok else len(set(over) | set(bad))
    return digest(metrics.deterministic_dict())


def _final_logits_ok(eng: engine.Engine, x) -> bool:
    """Classify the pass's last batch with the adapted model and its inference statistics."""
    source = eng.config.inference_stats_mode
    if source == "iobmn" and not all(l.memory_norm.populated for l in eng.model.norm_layers):
        source = "batch"
    try:
        logits = model.forward(eng.model, x, source).logits.data
    except (ValueError, RuntimeError):  # non-finite statistics or unusable norm state
        return False
    return logits.shape == (x.shape[0], eng.model.num_classes) and bool(np.all(np.isfinite(logits)))


@dataclass
class Timing:
    """A checked pass reduced to its timings.

    Passes are checked as soon as they end and only this is kept, so peak
    memory does not grow with the number of passes that fit in a run.
    """

    latencies: np.ndarray  # per batch, seconds
    serving: np.ndarray    # latency minus the engine's adaptation_seconds
    size: int              # batches the pass completed


def checked_pass(base: model.Model, config: engine.EngineConfig, workload: StreamWorkload, batches,
                 out: Outcome, digests: list[str], tracer: tracing.Tracer | None = None) -> tuple[Timing, list]:
    """Run one pass (traced if a tracer is given) and check it untraced.

    Appends the pass's digest to `digests`; returns its timings and records.
    """
    with tracer.installed() if tracer else contextlib.nullcontext():
        p = stream_pass(base, config, batches)
    digests.append(check_pass(p, workload, batches, out))
    latencies = np.array(p.latencies)
    serving = latencies - np.array([r.adaptation_seconds for r in p.records])
    return Timing(latencies, serving, len(p.records)), p.records


def check_digests(digests: list[str], timings: list[Timing], out: Outcome, name: str) -> None:
    mismatched = [i for i, d in enumerate(digests) if d != digests[0]]
    if not out.check(name, not mismatched, f"passes {mismatched} differ from pass 0"):
        out.failed += sum(timings[i].size for i in mismatched)


@dataclass
class Stream:
    """One pretrained model and the stream it serves, made from one seed."""

    config: engine.EngineConfig
    base: model.Model
    batches: list
    fingerprint: str


def stream_seeds(seed: int) -> list[int]:
    """The seeds of a run's streams; runs with different seeds share none."""
    return [STREAMS_PER_RUN * seed + k for k in range(STREAMS_PER_RUN)]


def new_stream(workload: StreamWorkload, cfg: dict, seed: int) -> tuple[Stream, float]:
    gc.collect()  # so peak memory does not depend on garbage left by the passes before
    base, batches, seconds, fingerprint = setup_stream(workload, cfg, seed)
    return Stream(workload.engine_config(cfg, seed), base, batches, fingerprint), seconds


def run_stream(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workload = STREAMS[name]
    cfg = cli.load_config(None)
    seeds = stream_seeds(seed)
    out = Outcome()
    if trace:
        return _trace_stream(workload, cfg, seeds[0], seconds, out)

    # The run's window holds the set-ups of its streams, then passes over the
    # streams in turn until the window ends, so each stream's passes sample
    # the whole window: a slowdown from other load on the machine that lasts
    # part of the window does not reach every pass of a batch. Halfway, the
    # first stream is set up again: set-up must be deterministic, and set-up
    # time is sampled at two points of the window. Successive set-ups and
    # passes also run on each of the process's CPUs in turn: other tenants'
    # load on a shared host often slows one CPU and not the other, and a
    # stream count coprime to the CPU count gives every stream passes on
    # every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    streams, setup_seconds = [], []
    digests = [[] for _ in seeds]
    timings = [[] for _ in seeds]
    records = [None for _ in seeds]  # one complete pass's batch records per stream

    def setup(s: int) -> Stream:
        os.sched_setaffinity(0, {cpus[len(setup_seconds) % len(cpus)]})
        stream, secs = new_stream(workload, cfg, s)
        setup_seconds.append(secs)
        return stream

    def repeat_setup():
        again = setup(seeds[0])
        out.check("setup.deterministic", again.fingerprint == streams[0].fingerprint,
                  f"two set-ups from seed {seeds[0]} produced different models or streams")

    try:
        streams = [setup(s) for s in seeds]
        n = 0
        while time.perf_counter() < start + seconds or len(timings[n % len(streams)]) < MIN_PASSES:
            if len(setup_seconds) == len(seeds) and time.perf_counter() >= start + seconds / 2:
                repeat_setup()
            k = n % len(streams)
            os.sched_setaffinity(0, {cpus[n % len(cpus)]})
            st = streams[k]
            timing, pass_records = checked_pass(st.base, st.config, workload, st.batches, out, digests[k])
            timings[k].append(timing)
            if records[k] is None and timing.size == len(st.batches):
                records[k] = pass_records
            n += 1
        if len(setup_seconds) == len(seeds):  # the last pass began before halfway
            repeat_setup()
    finally:
        os.sched_setaffinity(0, cpus)
    for k, st in enumerate(streams):
        check_digests(digests[k], timings[k], out, "hash.repeats")

    complete = [[t for t in ts if t.size == len(st.batches)] for ts, st in zip(timings, streams)]
    if all(complete) and all(r is not None for r in records):
        out.metrics.update(stream_metrics(complete, records, out))
    out.metrics["setup_s"] = float(np.median(setup_seconds))
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.notes["setup_s"] = (f"median of {len(setup_seconds)} set-ups (pretraining + stream generation), "
                            f"seeds {seeds}, then {seeds[0]} again halfway through the run")
    return out


def best_latencies(timings: list[Timing]) -> np.ndarray:
    """Each batch's latency as the minimum over passes of that same batch.

    Passes repeat a bit-identical computation (the digest check enforces
    it), so the spread between passes is interference from other load on
    the machine; the minimum removes it batch by batch while keeping the
    real variation along the stream.
    """
    return np.min([t.latencies for t in timings], axis=0)


def stream_metrics(timings: list[list[Timing]], records: list[list], out: Outcome) -> dict[str, float]:
    """Metrics pooled over a run's streams.

    `timings[k]` are stream k's complete passes and `records[k]` the batch
    records of one of them. A batch's latency is its best over its stream's
    passes; the percentiles are taken over the batches of all streams.
    """
    best = np.concatenate([best_latencies(ts) for ts in timings])
    adapted = np.concatenate([[r.adapted for r in recs] for recs in records])
    unadapted = best[~adapted]
    if not unadapted.size:  # every batch carries an update: time its serving part
        unadapted = np.concatenate([np.min([t.serving for t in ts], axis=0) for ts in timings])
        out.notes["unadapted_p50_ms"] = "every batch carries an update: serving part (latency - adaptation_seconds)"
    tail, pct = tail_percentile(best)
    counts = sorted(len(ts) for ts in timings)
    n = best.size
    rule = f"{len(timings)} streams, each batch's best of its stream's {counts[0]}-{counts[-1]} passes"
    out.notes.update({
        "throughput_sps": f"stream samples / sum of per-batch latencies ({rule})",
        "batch_p50_ms": f"over {n} batches ({rule})",
        "batch_p99_ms": f"p{pct} over {n} batches ({n - math.ceil(pct * n / 100)} beyond; {rule})",
        "adapted_p50_ms": f"over {int(adapted.sum())} adapted batches ({rule})",
        "accuracy": f"pooled over the {len(timings)} streams",
    })
    out.notes.setdefault("unadapted_p50_ms", f"over {unadapted.size} unadapted batches ({rule})")
    return {
        "throughput_sps": n * BATCH_SIZE / float(best.sum()),
        "batch_p50_ms": float(np.median(best)) * 1e3,
        "batch_p99_ms": float(tail) * 1e3,
        "unadapted_p50_ms": float(np.median(unadapted)) * 1e3,
        "adapted_p50_ms": float(np.median(best[adapted])) * 1e3 if adapted.any() else math.nan,
        "accuracy": engine.RunMetrics([r for recs in records for r in recs]).accuracy(),
    }


def _trace_stream(workload, cfg, seed, seconds, out: Outcome) -> Outcome:
    """Alternate untraced and traced passes over one stream; the traced ones give the per-layer metrics."""
    before = tracing.bindings()
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    with tracer.installed():
        _, _, _, traced_fingerprint = setup_stream(workload, cfg, seed)
    st, _ = new_stream(workload, cfg, seed)
    out.check("setup.deterministic", st.fingerprint == traced_fingerprint, "traced set-up differs from untraced set-up")
    digests: list[str] = []
    plain: list[Timing] = []
    traced: list[Timing] = []
    while not traced or time.perf_counter() < deadline:
        plain.append(checked_pass(st.base, st.config, workload, st.batches, out, digests)[0])
        traced.append(checked_pass(st.base, st.config, workload, st.batches, out, digests, tracer)[0])
    pairs = [t for pair in zip(plain, traced) for t in pair]
    check_digests(digests, pairs, out, "hash.traced_vs_untraced")
    out.check("trace.restored", tracing.bindings() == before, "an entry point was left wrapped")

    metrics, sums = tracing.analyse(tracer, len(traced))
    if all(t.size == len(st.batches) for t in pairs):
        overhead = np.median(best_latencies(traced)) / np.median(best_latencies(plain)) - 1.0
        metrics["trace.overhead_share"] = float(overhead)
    _check_self_sum(sums, out)
    out.metrics.update(metrics)
    out.notes["trace.overhead_share"] = f"batch_p50_ms of {len(traced)} traced vs {len(plain)} untraced passes"
    out.tracer = tracer
    return out


def _check_self_sum(sums: dict, out: Outcome) -> None:
    root, total = sums["root_seconds"], sums["self_seconds"]
    out.check("trace.self_sum", root > 0 and abs(total - root) <= 1e-9 * root,
              f"layer self times sum to {total!r} s, process_batch spans to {root!r} s")
    out.notes["trace.self_sum"] = (f"layer self times {total:.6f} s = process_batch spans {root:.6f} s "
                                   f"over {sums['batches']} batches")


# ---------------------------------------------------------------------------
# grid workload


def grid_config(seed: int) -> dict:
    cfg = cli.load_config(None)
    cfg["grid"] = {"modes": list(GRID_MODES), "ar": list(GRID_RATES), "seeds": [seed, seed + 1]}
    return cfg


@dataclass
class GridRun:
    code: int
    wall: float
    records: list[dict]


def grid_once(seed: int, scratch: str, tracer: tracing.Tracer | None = None) -> GridRun:
    """One `stta run` of the reference grid from a fresh directory, STTA_OUT_DIR unset."""
    workdir = tempfile.mkdtemp(prefix="grid-", dir=scratch)
    config_path = os.path.join(workdir, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(grid_config(seed), fh)
    saved_env = os.environ.pop(cli.OUT_DIR_ENV, None)
    cwd = os.getcwd()
    argv = ["run", "--config", config_path, "--workers", str(GRID_WORKERS), "--out", os.path.join(workdir, "out")]
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(io.StringIO()), (tracer.installed() if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        records = []
        results = os.path.join(workdir, "out", "results.jsonl")
        if os.path.exists(results):
            with open(results, "r", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
    finally:
        os.chdir(cwd)
        if saved_env is not None:
            os.environ[cli.OUT_DIR_ENV] = saved_env
        shutil.rmtree(workdir, ignore_errors=True)
    return GridRun(code, wall, records)


def check_grid(run: GridRun, out: Outcome) -> str:
    """Correctness checks of one grid run; returns the digest of its results without `timing`."""
    out.attempted += GRID_CELLS
    code_ok = out.check("grid.exit_code", run.code == 0, f"stta run exited with {run.code}")
    out.check("grid.records", len(run.records) == GRID_CELLS, f"{len(run.records)} records, want {GRID_CELLS}")
    bad = 0
    for rec in run.records:
        m = rec["metrics"]
        want = expected_adapts(m["batches"], rec["ar"])
        ok = out.check("adapt.count", m["adapt_count"] + m["skipped_adaptations"] == want,
                       f"{rec['cell']} seed {rec['seed']}: adapt_count + skipped != floor(B*ar) = {want}")
        ok &= out.check("grid.accuracy", m["accuracy"] is not None and 0.0 <= m["accuracy"] <= 1.0,
                        f"{rec['cell']} seed {rec['seed']}: accuracy {m['accuracy']!r}")
        bad += not ok
    out.failed += GRID_CELLS if not code_ok else max(0, GRID_CELLS - len(run.records)) + bad
    return digest([{k: v for k, v in rec.items() if k != "timing"} for rec in run.records])


def check_grid_digests(digests: list[str], out: Outcome, name: str) -> None:
    mismatched = sum(d != digests[0] for d in digests)
    if not out.check(name, not mismatched, f"{mismatched} grid runs differ from the first once timing is dropped"):
        out.failed += mismatched * GRID_CELLS


def run_grid(seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    out = Outcome()
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    try:
        if trace:
            return _trace_grid(seed, seconds, scratch, out)
        cfg = grid_config(seed)
        setups, fingerprints = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            fingerprints.add(digest(model.model_dict(cli.prepare_model(cfg, seed, None))))
            setups.append(time.perf_counter() - start)
        out.check("setup.deterministic", len(fingerprints) == 1, "set-ups produced different models")
        runs: list[GridRun] = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_PASSES or time.perf_counter() < deadline:
            runs.append(grid_once(seed, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_grid_digests([check_grid(r, out) for r in runs], out, "grid.results_identical")
    out.metrics.update(grid_metrics(runs))
    out.metrics["setup_s"] = float(np.median(setups))
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    cells = sum(len(r.records) for r in runs)
    pct = tail_percentile(range(cells))[1]
    out.notes.update({
        "grid_wall_s": f"fastest of {len(runs)} grid runs",
        "throughput_sps": f"stream samples of all cells / wall time of the fastest of {len(runs)} grid runs",
        "batch_p50_ms": f"median over {cells} cells of the cell's mean batch latency (engine clock)",
        "batch_p99_ms": f"p{pct} over {cells} cells of the cell's mean batch latency",
        "unadapted_p50_ms": "median over cells with ar < 1 of the mean unadapted batch latency",
        "adapted_p50_ms": "median over cells with ar > 0 of the mean adapted batch latency",
        "setup_s": f"median of {SETUP_REPEATS} per-seed model preparations (pretraining)",
        "accuracy": "mean cell accuracy",
    })
    return out


def grid_metrics(runs: list[GridRun]) -> dict[str, float]:
    timings = [rec["timing"] for r in runs for rec in r.records]
    mean = [t["mean_batch_seconds"] for t in timings]
    unadapted = [t["mean_unadapted_batch_seconds"] for t in timings if t["mean_unadapted_batch_seconds"] is not None]
    adapted = [t["mean_adapted_batch_seconds"] for t in timings if t["mean_adapted_batch_seconds"] is not None]
    nan = math.nan
    return {
        "throughput_sps": max(sum(rec["metrics"]["samples"] for rec in r.records) / r.wall for r in runs),
        "batch_p50_ms": float(np.median(mean)) * 1e3 if mean else nan,
        "batch_p99_ms": tail_percentile(mean)[0] * 1e3 if mean else nan,
        "unadapted_p50_ms": float(np.median(unadapted)) * 1e3 if unadapted else nan,
        "adapted_p50_ms": float(np.median(adapted)) * 1e3 if adapted else nan,
        "accuracy": float(np.mean([rec["metrics"]["accuracy"] for rec in runs[0].records])) if runs[0].records else nan,
        "grid_wall_s": min(r.wall for r in runs),
    }


def _trace_grid(seed, seconds, scratch, out: Outcome) -> Outcome:
    before = tracing.bindings()
    tracer = tracing.Tracer()
    plain: list[GridRun] = []
    traced: list[GridRun] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(grid_once(seed, scratch))
        traced.append(grid_once(seed, scratch, tracer))
    check_grid_digests([check_grid(r, out) for r in plain + traced], out, "grid.traced_vs_untraced")
    out.check("trace.restored", tracing.bindings() == before, "an entry point was left wrapped")
    metrics, sums = tracing.analyse(tracer, len(traced))
    metrics["trace.overhead_share"] = grid_metrics(traced)["batch_p50_ms"] / grid_metrics(plain)["batch_p50_ms"] - 1.0
    _check_self_sum(sums, out)
    out.metrics.update(metrics)
    out.notes["trace.overhead_share"] = f"median cell batch latency, {len(traced)} traced vs {len(plain)} untraced grid runs"
    out.tracer = tracer
    return out


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    if name == "grid":
        return run_grid(seed, seconds, trace, out_dir)
    return run_stream(name, seed, seconds, trace)
