"""Streaming adaptation loop: inference, memory upkeep, sparse updates.

Each batch is classified first (never benefiting from its own update),
its samples are offered to the memory, the domain centroid absorbs the
batch's early-layer statistics, and only then, when floor(batch count * ar)
steps up, does one entropy-minimization step run on the memory batch. The
statistics observed during that step seed the memory-based normalization
used for subsequent inference.

Wall time is measured with a monotonic clock and split into (inference +
memory maintenance) versus adaptation. Timing fields are therefore the
only non-deterministic part of a run's metrics.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import numerics as nm
from .memory import SELECTION_MODES, SampleMemory
from .model import (
    NORM_SOURCES,
    Model,
    adapt_step,
    checked_array,
    checked_batch,
    checked_int,
    checked_number,
    forward,
    is_real,
    load_model_dict,
    model_dict,
    per_sample_entropy,
    required,
)


def _as_rate(value) -> Fraction:
    """Exact rational adaptation rate from float/str/Fraction input; ValueError for anything else."""
    try:
        if isinstance(value, bool):  # a YAML or JSON boolean, an int to Python
            raise TypeError
        if isinstance(value, Fraction):
            rate = value
        elif isinstance(value, str):
            rate = Fraction(value)
        else:
            rate = Fraction(str(float(value)))
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"adaptation rate {value!r} is not a number") from None
    if not (0 <= rate <= 1):
        raise ValueError(f"adaptation rate {value!r} outside [0, 1]")
    return rate


class AdaptationSchedule:
    """Exact proportional scheduler for sparse updates.

    After B batches exactly floor(B * ar) updates have fired: batch B
    adapts when that floor steps up. The floor is taken in integers, so no
    rational rate drifts. `batch_count` is the only state.
    """

    def __init__(self, ar) -> None:
        self.ar = _as_rate(ar)
        self.batch_count = 0

    @property
    def adapt_count(self) -> int:
        return self.batch_count * self.ar.numerator // self.ar.denominator

    @property
    def credit(self) -> Fraction:  # the fractional part of batch_count * ar
        return self.batch_count * self.ar - self.adapt_count

    def should_adapt(self) -> bool:
        """Call exactly once per batch, in stream order."""
        self.batch_count += 1  # floor(n * ar) steps up exactly when frac(n * ar) < ar
        return self.batch_count * self.ar.numerator % self.ar.denominator < self.ar.numerator


@dataclass(frozen=True)
class EngineConfig:
    ar: Fraction | float | str = "0.1"  # read into the exact Fraction on construction
    tau_conf: float = 0.5
    tau_delta: float = 0.1
    alpha: float = 4.0
    beta_centroid: float = 0.9
    ema_momentum: float = 0.9
    lr: float = 1e-3
    capacity: int | None = None  # None: match the batch size of the first batch
    selection_mode: str = "cndrm"
    inference_stats_mode: str = "iobmn"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ar", _as_rate(self.ar))
        if self.inference_stats_mode not in NORM_SOURCES:
            raise ValueError(f"unknown inference stats mode {self.inference_stats_mode!r}")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection_mode!r} (have {', '.join(SELECTION_MODES)})")
        if self.capacity is not None:
            checked_int(self.capacity, "capacity", 1)
        checked_int(self.seed, "seed")
        for name, ok, rule in (
            ("lr", lambda v: math.isfinite(v) and v >= 0.0, ">= 0 and finite"),
            ("tau_conf", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            ("tau_delta", lambda v: v >= 0.0, ">= 0"),
            ("alpha", lambda v: v >= 0.0, ">= 0"),
            ("beta_centroid", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
            ("ema_momentum", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
        ):
            checked_number(getattr(self, name), name, ok, rule)


@dataclass
class BatchRecord:
    index: int
    segment: int
    size: int
    correct: int | None          # None when eval labels were withheld
    adapted: bool
    adapt_skipped: bool          # scheduled but memory was empty
    inserted: int
    inserted_correct: int | None
    rescored: int
    memory_size: int
    inference_seconds: float
    adaptation_seconds: float


_DETERMINISTIC_FIELDS = tuple(f.name for f in fields(BatchRecord) if not f.name.endswith("_seconds"))


def _accuracy(records) -> float | None:
    """Share of correct predictions over the records that carry labels; None if none do."""
    labeled = [r for r in records if r.correct is not None]
    if not labeled:
        return None
    return sum(r.correct for r in labeled) / sum(r.size for r in labeled)


class RunMetrics:
    """Per-batch records with segment/total summaries.

    Everything except the *_seconds fields is a deterministic function of
    (model, stream, config); `deterministic_dict` projects those fields
    out for reproducibility comparisons.
    """

    def __init__(self, records: list[BatchRecord]) -> None:
        self.records = records

    @property
    def total_batches(self) -> int:
        return len(self.records)

    @property
    def total_samples(self) -> int:
        return sum(r.size for r in self.records)

    @property
    def adapt_count(self) -> int:
        return sum(1 for r in self.records if r.adapted)

    @property
    def skipped_adaptations(self) -> int:
        return sum(1 for r in self.records if r.adapt_skipped)

    def accuracy(self) -> float | None:
        return _accuracy(self.records)

    def segment_accuracies(self) -> list[tuple[int, float | None]]:
        """(segment, accuracy) pairs in the order the segments first appear."""
        segments: dict[int, list[BatchRecord]] = {}
        for r in self.records:
            segments.setdefault(r.segment, []).append(r)
        return [(seg, _accuracy(rows)) for seg, rows in segments.items()]

    def pseudo_label_accuracy(self) -> float | None:
        rows = [r for r in self.records if r.inserted_correct is not None and r.inserted > 0]
        total = sum(r.inserted for r in rows)
        if total == 0:
            return None
        return sum(r.inserted_correct for r in rows) / total

    def memory_occupancy(self) -> tuple[float, int]:
        if not self.records:
            return 0.0, 0
        return (sum(r.memory_size for r in self.records) / len(self.records),
                self.records[-1].memory_size)

    def mean_latency(self, adapted: bool | None = None) -> float | None:
        rows = self.records if adapted is None else [r for r in self.records if r.adapted == adapted]
        if not rows:
            return None
        return sum(r.inference_seconds + r.adaptation_seconds for r in rows) / len(rows)

    def adaptation_share(self) -> float:
        total = sum(r.inference_seconds + r.adaptation_seconds for r in self.records)
        if total == 0.0:
            return 0.0
        return sum(r.adaptation_seconds for r in self.records) / total

    def deterministic_dict(self) -> dict:
        return {"records": [{name: getattr(r, name) for name in _DETERMINISTIC_FIELDS} for r in self.records]}


class Engine:
    """One adaptation engine per stream; strictly single-threaded inside."""

    def __init__(self, model: Model, config: EngineConfig) -> None:
        self.model = model
        self.config = config
        self.schedule = AdaptationSchedule(config.ar)
        self.memory: SampleMemory | None = None  # sized on the first batch
        self._arrival = 0
        self._rng = np.random.default_rng(config.seed)
        for layer in model.norm_layers:
            layer.memory_norm.alpha = config.alpha
            layer.ema.momentum = config.ema_momentum

    # -- wiring ---------------------------------------------------------

    def _ensure_memory(self, batch_size: int) -> SampleMemory:
        if self.memory is None:
            capacity = self.config.capacity if self.config.capacity is not None else batch_size
            self.memory = SampleMemory(
                capacity=capacity,
                channels=self.model.norm_layers[0].channels,
                tau_conf=self.config.tau_conf,
                tau_delta=self.config.tau_delta,
                beta=self.config.beta_centroid,
                selection_mode=self.config.selection_mode,
                rng=self._rng,
            )
        return self.memory

    def _inference_source(self) -> str:
        mode = self.config.inference_stats_mode
        if mode == "iobmn":
            populated = all(l.memory_norm.populated for l in self.model.norm_layers)
            return "iobmn" if populated else "batch"
        return mode

    def _populate_memory_norm(self, result, batch: np.ndarray) -> None:
        count, extent = batch.shape[0], batch.shape[2]  # every norm layer sees the input length
        if extent * count >= 2:  # what `populate` takes: the sampling variance divides by n - 1
            for layer, stats in zip(self.model.norm_layers, result.layer_stats):
                layer.memory_norm.populate(stats, extent, count)

    def _validated(self, x, labels) -> tuple[np.ndarray, np.ndarray | None]:
        """Check a batch before anything changes (see `checked_batch`), and that its samples fit the memory."""
        where = f"batch {self.schedule.batch_count}"
        xv, lv = checked_batch(x, labels, self.model, where)
        stored = self.memory.inputs if self.memory is not None else None
        if stored is not None and xv.shape[1:] != stored.shape[1:]:
            raise ValueError(f"{where}: samples of shape {xv.shape[1:]}, the memory holds {stored.shape[1:]}")
        return xv, lv

    # -- the loop ---------------------------------------------------------

    def process_batch(self, x, labels=None, segment: int = 0) -> BatchRecord:
        """Run one stream batch; its labels (optional class indices) feed metrics only.

        The batch and its labels are checked before anything changes: a
        rejected batch raises ValueError naming its index and leaves the
        engine as it was.
        A floating-point overflow, division by zero or invalid operation
        raises FloatingPointError naming the batch index where it happens;
        the engine is then part-way through the batch and must not serve on.
        """
        xv, labels = self._validated(x, labels)
        index = self.schedule.batch_count
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return self._process(index, xv, labels, segment)
        except FloatingPointError as exc:
            raise FloatingPointError(f"batch {index}: {exc}") from None

    def _process(self, index: int, xv: np.ndarray, labels: np.ndarray | None, segment: int) -> BatchRecord:
        memory = self._ensure_memory(xv.shape[0])

        t0 = time.perf_counter()
        result = forward(self.model, xv, self._inference_source())
        probs = nm.softmax(result.logits)
        mu, sigma = result.early_mean, result.early_sigma
        pseudo = probs.argmax(axis=1).tolist()
        confidences = np.maximum.reduce(probs, axis=1).tolist()
        entropies = per_sample_entropy(probs).tolist()
        scores = memory.score(mu, sigma).tolist()
        truth = labels.tolist() if labels is not None else None

        inserted = inserted_correct = 0
        arrival = self._arrival
        for i, row in enumerate(zip(xv, pseudo, confidences, mu, sigma, scores)):
            if memory.insert(*row, arrival + i, entropies[i]).kind != "rejected_low_conf":
                inserted += 1
                inserted_correct += truth is not None and pseudo[i] == truth[i]
        self._arrival = arrival + len(pseudo)

        shift = memory.update_centroid(result.layer_stats[0])
        rescored = memory.maybe_rescore(shift)
        t1 = time.perf_counter()

        adapted = False
        skipped = False
        adaptation_seconds = 0.0
        if self.schedule.should_adapt():
            t2 = time.perf_counter()
            batch = memory.batch()
            step = adapt_step(self.model, batch, self.config.lr)
            if step is None:
                skipped = True
            else:
                adapted = True
                self._populate_memory_norm(step, batch)
            adaptation_seconds = time.perf_counter() - t2

        return BatchRecord(
            index=index,
            segment=segment,
            size=xv.shape[0],
            correct=None if truth is None else sum(map(operator.eq, pseudo, truth)),
            adapted=adapted,
            adapt_skipped=skipped,
            inserted=inserted,
            inserted_correct=None if truth is None else inserted_correct,
            rescored=rescored,
            memory_size=len(memory),
            inference_seconds=t1 - t0,
            adaptation_seconds=adaptation_seconds,
        )

    def run_stream(self, stream) -> RunMetrics:
        """Fold the `StreamBatch`es of a stream; see `process_batch`."""
        return RunMetrics([self.process_batch(batch.x, batch.labels, batch.segment) for batch in stream])

    # -- checkpoint/resume --------------------------------------------------

    ENGINE_FORMAT = "stta-engine"
    ENGINE_VERSION = 1

    def state_dict(self) -> dict:
        mem = None
        m = self.memory
        if m is not None:
            mem = {
                "capacity": m.capacity,
                "samples": [
                    {
                        "input": m.inputs[s].tolist(),
                        "pseudo_label": int(m.labels[s]),
                        "confidence": float(m.confidences[s]),
                        "mu": m.mu[s].tolist(),
                        "sigma": m.sigma[s].tolist(),
                        "wdist": float(m.wdist[s]) if m.wdist[s] != math.inf else "inf",
                        "arrival_index": int(m.arrivals[s]),
                        "entropy": None if math.isnan(m.entropies[s]) else float(m.entropies[s]),
                    }
                    for s in m.order().tolist()
                ],
                "centroid": {
                    "mu": m.centroid_mu.tolist(),
                    "sigma": m.centroid_sigma.tolist(),
                    "initialized": m.centroid_initialized,
                },
            }
        return {
            "format": self.ENGINE_FORMAT,
            "version": self.ENGINE_VERSION,
            "config": _config_dict(self.config),
            "model": model_dict(self.model),
            "schedule": {
                "credit": [self.schedule.credit.numerator, self.schedule.credit.denominator],
                "adapt_count": self.schedule.adapt_count,
                "batch_count": self.schedule.batch_count,
            },
            "memory": mem,
            "arrival": self._arrival,
            "batch_index": self.schedule.batch_count,
            "rng": _rng_state_dict(self._rng),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state_dict(), fh)

    @classmethod
    def from_state_dict(cls, payload: dict) -> "Engine":
        """The engine a checkpoint holds; ValueError naming the field it rejects (see README)."""
        if not isinstance(payload, dict):
            raise ValueError("engine checkpoint must be a JSON object")
        if payload.get("format") != cls.ENGINE_FORMAT:
            raise ValueError("not an engine checkpoint")
        if payload.get("version") != cls.ENGINE_VERSION:
            raise ValueError(f"unsupported engine checkpoint version {payload.get('version')!r}")
        top = "engine checkpoint"
        config = _config_from_dict(required(payload, "config", top, ": "))
        engine = cls(load_model_dict(required(payload, "model", top, ": ")), config)
        sched, at = required(payload, "schedule", top, ": "), f"{top}: schedule"
        credit = required(sched, "credit", at)
        if not (isinstance(credit, list) and len(credit) == 2):
            raise ValueError(f"{at}.credit must be a [numerator, denominator] pair, got {credit!r}")
        credit = Fraction(checked_int(credit[0], f"{at}.credit[0]"),
                          checked_int(credit[1], f"{at}.credit[1]", 1))
        if credit >= 1:
            raise ValueError(f"{at}.credit must be < 1, got {credit}")
        adapt_count, batch_count = (checked_int(required(sched, key, at), f"{at}.{key}")
                                    for key in ("adapt_count", "batch_count"))
        engine._arrival = checked_int(required(payload, "arrival", top, ": "), f"{top}: arrival")
        batch_index = checked_int(required(payload, "batch_index", top, ": "), f"{top}: batch_index")
        engine.schedule.batch_count = batch_count  # the other three counts follow from it and config.ar
        for name, got, want in (("batch_index", batch_index, batch_count),
                                ("schedule.adapt_count", adapt_count, engine.schedule.adapt_count),
                                ("schedule.credit", credit, engine.schedule.credit)):
            if got != want:
                raise ValueError(f"{top}: {name} {got} disagrees with schedule.batch_count {batch_count} "
                                 f"at config.ar {config.ar} (want {want})")
        engine._rng = _rng_from_dict(required(payload, "rng", top, ": "))
        mem = required(payload, "memory", top, ": ")
        if mem is not None:
            engine._load_memory(mem)
        return engine

    def _load_memory(self, mem: dict) -> None:
        at, channels = "checkpoint memory", self.model.in_channels
        capacity = checked_int(required(mem, "capacity", at, ": "), f"{at}: capacity", 1)
        if self.config.capacity not in (None, capacity):
            raise ValueError(f"{at}: capacity {capacity} disagrees with config.capacity "
                             f"{self.config.capacity}")
        memory = self._ensure_memory(capacity)
        cen, cen_at = required(mem, "centroid", at, ": "), f"{at}: centroid"
        memory.centroid_mu = checked_array(required(cen, "mu", cen_at), f"{cen_at}.mu", (channels,))
        memory.centroid_sigma = checked_array(required(cen, "sigma", cen_at), f"{cen_at}.sigma", (channels,),
                                              nonnegative=True)
        memory.centroid_initialized = required(cen, "initialized", cen_at)
        if not isinstance(memory.centroid_initialized, bool):
            raise ValueError(f"{cen_at}.initialized must be true or false, "
                             f"got {memory.centroid_initialized!r}")
        samples = required(mem, "samples", at, ": ")
        if not isinstance(samples, list):
            raise ValueError(f"{at}: samples must be a list, got {samples!r}")
        for i, s in enumerate(samples):
            arrival = checked_int(required(s, "arrival_index", f"{at}: samples[{i}]"),
                                  f"{at}: samples[{i}].arrival_index", below=self._arrival)
            where = f"{at}: sample {arrival}"
            conf, wdist, entropy, x, mu, sigma, label = (required(s, key, where, ": ") for key in (
                "confidence", "wdist", "entropy", "input", "mu", "sigma", "pseudo_label"))
            x = checked_array(x, f"{where}: input")
            if x.ndim != 2 or x.shape[0] != channels or x.shape[1] < 1:
                raise ValueError(f"{where}: input has shape {x.shape}, "
                                 f"want in_channels x L = ({channels}, L >= 1)")
            if memory.inputs is not None and x.shape != memory.inputs.shape[1:]:
                raise ValueError(f"{where}: input has shape {x.shape}, the samples before it "
                                 f"{memory.inputs.shape[1:]}")
            mu = checked_array(mu, f"{where}: mu", (channels,))
            sigma = checked_array(sigma, f"{where}: sigma", (channels,), nonnegative=True)
            label = checked_int(label, f"{where}: pseudo_label", below=self.model.num_classes)
            if not (is_real(conf) and 0.0 <= conf <= 1.0):
                raise ValueError(f"{where}: confidence must be in [0, 1], got {conf!r}")
            if wdist != "inf" and not (is_real(wdist) and wdist >= 0.0):
                raise ValueError(f"{where}: wdist must be a number >= 0 or \"inf\", got {wdist!r}")
            if entropy is not None and not (is_real(entropy) and math.isfinite(entropy)):
                raise ValueError(f"{where}: entropy must be a finite number or null, got {entropy!r}")
            outcome = memory.insert(x, label, conf, mu, sigma, math.inf if wdist == "inf" else wdist,
                                    arrival, entropy)
            if outcome.kind != "inserted":
                raise ValueError(f"{where} does not fit a {memory.selection_mode} memory "
                                 f"of capacity {memory.capacity}")

    @classmethod
    def load(cls, path) -> "Engine":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_state_dict(json.load(fh))


def _config_dict(config: EngineConfig) -> dict:
    return dict(asdict(config), ar=f"{config.ar.numerator}/{config.ar.denominator}")


def _config_from_dict(d) -> EngineConfig:
    if not isinstance(d, dict):
        raise ValueError(f"engine checkpoint: config must be a JSON object, got {d!r}")
    d = dict(d)
    # Checkpoints written before the per-batch memory-statistics refresh was
    # removed carry its switch; only the frozen statistics it defaulted to load.
    if d.pop("refresh_memory_stats", False) is not False:
        raise ValueError("engine checkpoint sets refresh_memory_stats, which is no longer supported")
    for key in d:
        if key not in EngineConfig.__dataclass_fields__:
            raise ValueError(f"engine checkpoint: config.{key} is not an engine setting")
    try:
        return EngineConfig(**d)
    except ValueError as exc:
        raise ValueError(f"engine checkpoint: config: {exc}") from None


def _rng_state_dict(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _rng_from_dict(payload) -> np.random.Generator:
    gen = np.random.default_rng(0)
    try:
        for key in ("state", "inc"):
            checked_int(payload["state"][key], key)
        gen.bit_generator.state = payload
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"engine checkpoint: rng is not a PCG64 state "
                         f"({type(exc).__name__}: {exc})") from None
    return gen
