"""Streaming adaptation loop: inference, memory upkeep, sparse updates.

Each batch is classified first (never benefiting from its own update),
its samples are offered to the memory, the domain centroid absorbs the
batch's early-layer statistics, and only then, when floor(batch count * ar)
steps up, does one entropy-minimization step run on the memory batch. For
the `iobmn` inference source only, the statistics observed during that step
seed the memory-based normalization used for subsequent inference; no other
source reads them, so no other engine builds them.

Wall time is measured with a monotonic clock and split into (inference +
memory maintenance) versus adaptation. Timing fields are therefore the
only non-deterministic part of a run's metrics.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

import numpy as np

from . import numerics as nm
from .memory import SELECTION_MODES, SampleMemory
from .model import (
    NORM_SOURCES,
    Model,
    adapt_step,
    checked_batch,
    forward,
    load_model_dict,
    model_dict,
    per_sample_entropy,
)
from .normalization import MemoryNormState, estimable
from .numerics import FINITE_NONNEGATIVE, HALF_OPEN_UNIT, UNIT_INTERVAL, checked_fields, checked_int, checked_number


def _as_rate(value) -> Fraction:
    """Exact rational adaptation rate from float/int/str/Fraction input; ValueError for anything else."""
    try:
        if isinstance(value, bool):  # a YAML or JSON boolean, an int to Python
            raise TypeError
        if isinstance(value, (int, Fraction, str)):  # an int exactly, however large
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

    def should_adapt(self) -> bool:
        """Call exactly once per batch, in stream order."""
        self.batch_count += 1  # floor(n * ar) steps up exactly when frac(n * ar) < ar
        return self.batch_count * self.ar.numerator % self.ar.denominator < self.ar.numerator


# The real-valued engine settings, each an `EngineConfig` field of the same name, with its `checked_number` rule.
REAL_SETTINGS = {"tau_conf": UNIT_INTERVAL, "alpha": FINITE_NONNEGATIVE, "beta_centroid": HALF_OPEN_UNIT,
                 "ema_momentum": HALF_OPEN_UNIT, "lr": FINITE_NONNEGATIVE}


@dataclass(frozen=True)
class EngineConfig:
    ar: Fraction | float | str = "0.1"  # read into the exact Fraction on construction
    tau_conf: float = 0.5
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
            object.__setattr__(self, "capacity", checked_int(self.capacity, "capacity", 1))
        object.__setattr__(self, "seed", checked_int(self.seed, "seed"))
        for name, rule in REAL_SETTINGS.items():
            object.__setattr__(self, name, checked_number(getattr(self, name), name, rule))


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
        self._rng = np.random.default_rng(config.seed)
        for layer in model.norm_layers:  # the configured settings, in new values built through their checks
            layer.memory_norm = replace(layer.memory_norm, alpha=config.alpha)
            layer.ema = replace(layer.ema, momentum=config.ema_momentum)

    # -- wiring ---------------------------------------------------------

    def _memory_settings(self) -> dict:
        """The `SampleMemory` arguments but its capacity: the model's channels and the configured settings."""
        c = self.config
        return {"channels": self.model.in_channels, "tau_conf": c.tau_conf, "beta": c.beta_centroid,
                "selection_mode": c.selection_mode, "rng": self._rng}

    def _ensure_memory(self, default_capacity: int) -> SampleMemory:
        """The memory, made on first use with `config.capacity`, or `default_capacity` if that is None."""
        if self.memory is None:
            self.memory = SampleMemory(self.config.capacity or default_capacity, **self._memory_settings())
        return self.memory

    def _inference_source(self) -> str:
        mode = self.config.inference_stats_mode
        if mode == "iobmn":
            populated = all(l.memory_norm.populated for l in self.model.norm_layers)
            return "iobmn" if populated else "batch"
        return mode

    def _validated(self, x, labels, segment) -> tuple[np.ndarray, np.ndarray | None, int]:
        """Check a batch and its segment before anything changes (see `checked_batch`), and its fit to the memory."""
        where = f"batch {self.schedule.batch_count}"
        xv, lv = checked_batch(x, labels, self.model, where)
        stored = self.memory.inputs if self.memory is not None else None
        if stored is not None and xv.shape[1:] != stored.shape[1:]:
            raise ValueError(f"{where}: samples of shape {xv.shape[1:]}, the memory holds {stored.shape[1:]}")
        return xv, lv, checked_int(segment, f"{where}: segment")

    # -- the loop ---------------------------------------------------------

    def process_batch(self, x, labels=None, segment: int = 0) -> BatchRecord:
        """Run one stream batch; its labels (optional class indices) feed metrics only.

        The batch, its labels and its segment (an integer >= 0) are checked
        before anything changes: a rejected batch raises ValueError naming
        its index and leaves the engine as it was.
        A floating-point overflow, division by zero or invalid operation
        raises FloatingPointError naming the batch index where it happens;
        the engine is then part-way through the batch and must not serve on.
        """
        xv, labels, segment = self._validated(x, labels, segment)
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
        pseudo = probs.argmax(axis=1).tolist()
        confidences = np.maximum.reduce(probs, axis=1).tolist()
        entropies = per_sample_entropy(probs).tolist()
        accepted, rescored = memory.offer(xv, pseudo, confidences, result.early_mean, result.early_sigma,
                                          entropies, result.layer_stats[0])
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
                count, extent = batch.shape[0], batch.shape[2]  # every norm layer sees the input length
                if self.config.inference_stats_mode == "iobmn" and estimable(extent, count):  # its only reader
                    for layer, stats in zip(self.model.norm_layers, step.layer_stats):
                        layer.memory_norm = MemoryNormState(self.config.alpha, stats, extent, count)
            adaptation_seconds = time.perf_counter() - t2

        truth = labels.tolist() if labels is not None else None
        return BatchRecord(
            index=index, segment=segment, size=xv.shape[0],
            correct=None if truth is None else sum(map(operator.eq, pseudo, truth)),
            adapted=adapted, adapt_skipped=skipped, inserted=len(accepted),
            inserted_correct=None if truth is None else sum(pseudo[i] == truth[i] for i in accepted),
            rescored=rescored, memory_size=len(memory),
            inference_seconds=t1 - t0, adaptation_seconds=adaptation_seconds)

    def run_stream(self, stream) -> RunMetrics:
        """Fold the `StreamBatch`es of a stream; see `process_batch`."""
        return RunMetrics([self.process_batch(batch.x, batch.labels, batch.segment) for batch in stream])

    # -- checkpoint/resume --------------------------------------------------

    ENGINE_FORMAT = "stta-engine"
    ENGINE_VERSION = 2

    def state_dict(self) -> dict:
        return {
            "format": self.ENGINE_FORMAT,
            "version": self.ENGINE_VERSION,
            "config": _config_dict(self.config),
            "model": model_dict(self.model),
            "batch_count": self.schedule.batch_count,
            "memory": None if self.memory is None else self.memory.state_dict(),
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
        _, _, config, model, batch_count, memory, rng = checked_fields(payload, (
            "format", "version", "config", "model", "batch_count", "memory", "rng"), "engine checkpoint", ": ")
        config = _config_from_dict(config)
        engine = cls(load_model_dict(model), config)
        engine.schedule.batch_count = checked_int(batch_count, "engine checkpoint: batch_count")
        engine._rng = _rng_from_dict(rng)
        if memory is not None:
            engine.memory = SampleMemory.from_state_dict(memory, engine.model.num_classes, **engine._memory_settings())
            if config.capacity not in (None, engine.memory.capacity):
                raise ValueError(f"checkpoint memory: capacity {engine.memory.capacity} disagrees with config.capacity "
                                 f"{config.capacity}")
        return engine

    @classmethod
    def load(cls, path) -> "Engine":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_state_dict(json.load(fh))


def _config_dict(config: EngineConfig) -> dict:
    return dict(asdict(config), ar=f"{config.ar.numerator}/{config.ar.denominator}")


def _config_from_dict(d) -> EngineConfig:
    values = checked_fields(d, tuple(EngineConfig.__dataclass_fields__), "engine checkpoint: config")
    try:
        return EngineConfig(*values)  # the fields, in their order
    except ValueError as exc:
        raise ValueError(f"engine checkpoint: config: {exc}") from None


def _rng_state_dict(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _rng_from_dict(payload) -> np.random.Generator:
    gen = np.random.default_rng(0)
    try:
        _, state, has_uint32, uinteger = checked_fields(
            payload, ("bit_generator", "state", "has_uint32", "uinteger"), "rng")
        for key, value in zip(("state", "inc"), checked_fields(state, ("state", "inc"), "rng.state")):
            checked_int(value, f"rng.state.{key}")
        checked_int(has_uint32, "rng.has_uint32", 0, 2)
        checked_int(uinteger, "rng.uinteger", 0, 2**32)
        gen.bit_generator.state = payload
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"engine checkpoint: rng is not a PCG64 state "
                         f"({type(exc).__name__}: {exc})") from None
    return gen
