"""Feed-forward classifier over batch x channel x length feature maps.

One fixed shape: n >= 1 blocks of a channel-mixing (1x1) linear layer, a
normalization layer and a relu, then a global mean pool over the length
axis and a linear head. Only the normalization layers' per-channel scale
and shift ever train: under cross-entropy during source pretraining, and
under prediction-entropy minimization during streaming adaptation. The
channel-mix and head weights keep their seeded initialization.

Normalization statistics come from one of four sources per forward pass:
live batch statistics, memory statistics with shrinkage correction,
an exponential moving average of test batches, or the frozen source
running statistics tracked during pretraining.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import normalization
from . import numerics as nm
from .normalization import (
    ChannelStats,
    EmaNormState,
    MemoryNormState,
    batch_channel_stats,
    normalize,
)
from .numerics import ShapeError

NORM_SOURCES = ("batch", "iobmn", "ema", "frozen")


class NormLayer:
    """Per-channel scale/shift with selectable statistics source.

    `gamma` and `beta` are the adaptation targets. `running_mean/var` are
    the source statistics accumulated during pretraining (used by the
    frozen source). `memory_norm` and `ema` host the inference-time
    statistics providers.
    """

    def __init__(self, channels: int, epsilon: float = 1e-5,
                 alpha: float = 4.0, ema_momentum: float = 0.9) -> None:
        self.channels = int(channels)
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.epsilon = float(epsilon)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.memory_norm = MemoryNormState(alpha=alpha)
        self.ema = EmaNormState(momentum=ema_momentum)


@dataclass
class ForwardResult:
    """Logits plus the statistics observed on the way through the network."""

    logits: np.ndarray
    early_mean: np.ndarray   # per sample, per channel: mean over length
    early_sigma: np.ndarray  # per sample, per channel: std over length
    layer_stats: list[ChannelStats]  # per norm layer: input batch statistics
    record: list[tuple] | None = None  # forward(..., record=True): per block (mix weight, norm saved, relu mask)


@dataclass(eq=False)
class Model:
    """Blocks of (channel mix, norm, relu), then pool and head; input is batch x channels x length."""

    mix_weights: list[np.ndarray]  # per block: channels x channels
    norm_layers: list[NormLayer]   # per block
    head_weight: np.ndarray        # channels x classes
    head_bias: np.ndarray

    @property
    def in_channels(self) -> int:
        return self.mix_weights[0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.head_weight.shape[1]

    def clone(self) -> "Model":
        return load_model_dict(model_dict(self))

    def reset_inference_stats(self) -> None:
        """Clear memory/EMA statistics (fresh stream), keeping weights."""
        for layer in self.norm_layers:
            layer.memory_norm = MemoryNormState(alpha=layer.memory_norm.alpha)
            layer.ema = EmaNormState(momentum=layer.ema.momentum)


def default_model(channels: int = 16, num_classes: int = 3, blocks: int = 3, seed: int = 0) -> Model:
    """Seeded Gaussian weights, drawn block by block and then the head (deterministic)."""
    if blocks < 1:
        raise ValueError(f"a model needs at least one block, got {blocks}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(channels)
    mix_weights = [rng.normal(0.0, scale, size=(channels, channels)) for _ in range(blocks)]
    head_weight = rng.normal(0.0, scale, size=(channels, num_classes))
    norm_layers = [NormLayer(channels) for _ in range(blocks)]
    return Model(mix_weights, norm_layers, head_weight, np.zeros(num_classes))


# ---------------------------------------------------------------------------
# forward


def forward(model: Model, x, norm_source: str = "batch", record: bool = False) -> ForwardResult:
    """Run the network, collecting early per-sample and per-layer statistics.

    Early statistics are each sample's per-channel (mean, std over length)
    of the input to the first norm layer; `layer_stats` are the live batch
    statistics of every norm layer's input. With the `ema` source, each
    norm layer folds the live statistics into its moving average as the
    pass reaches it. With `record` (batch source only; the training steps
    ask for it) the result also carries the record that `numerics.backward`
    differentiates; every other forward, serving with any source, keeps
    the channel mix's channel-major layout and records nothing.
    """
    if norm_source not in NORM_SOURCES:
        raise ValueError(f"unknown norm source {norm_source!r}")
    if record and norm_source != "batch":
        raise ValueError(f"only a batch-statistics forward can be recorded, not {norm_source!r}")
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 3 or xv.shape[1] != model.in_channels:
        raise ShapeError(f"expected batch x {model.in_channels} x length input, got {xv.shape}")
    if xv.shape[0] < 1:
        raise ShapeError("empty batch")

    early_mean = early_sigma = None
    layer_stats: list[ChannelStats] = []
    saved_blocks = [] if record else None
    # Only the backward reads the norm output batch-major; an unrecorded forward keeps
    # the channel mix's channel-major layout, so the next mix's transpose is a view.
    order = "C" if record else "K"
    length = xv.shape[2]
    out = xv
    for weight, layer in zip(model.mix_weights, model.norm_layers):
        out = nm.channel_mix(out, weight)
        stats = batch_channel_stats(out)
        layer_stats.append(stats)
        if early_mean is None:  # np.add.reduce / n is what `.mean` computes, without its Python wrapper
            early_mean = np.add.reduce(out, axis=2) / length
            centered = out - early_mean[:, :, None]
            early_sigma = np.sqrt(np.add.reduce(centered * centered, axis=2) / length)
        if norm_source == "batch":
            mean, var = stats.mean, stats.var
        elif norm_source == "iobmn":
            # Looked up on its module, where the benchmark's tracer counts the shrinkage.
            corrected = normalization.corrected_stats(layer.memory_norm, stats)
            mean, var = corrected.mean, corrected.var
        elif norm_source == "ema":
            blended = layer.ema.update(stats)
            mean, var = blended.mean, blended.var
        else:  # frozen source statistics
            mean, var = layer.running_mean, layer.running_var
        out, saved = normalize(out, mean, var, layer.gamma, layer.beta, layer.epsilon, order)
        if record:
            out, mask = nm.relu(out)
            saved_blocks.append((weight, saved, mask))
        else:  # the same values as `nm.relu`, +0.0 for every non-positive entry, without its mask
            out = np.maximum(out, 0.0)
    pooled = np.ascontiguousarray(np.add.reduce(out, axis=2) / length)  # channel-major rounds differently in BLAS
    logits = pooled @ model.head_weight + model.head_bias.reshape(1, -1)  # pool, head
    return ForwardResult(logits, early_mean, early_sigma, layer_stats, saved_blocks)


# ---------------------------------------------------------------------------
# losses; each returns the loss and its gradient with respect to the logits.
# The gradients take the reference differentiator's operations in its order
# (softmax and exp(log-softmax) both appear), so they equal it bit for bit;
# the closed forms round differently. Sums and means call `np.add.reduce` (and
# divide by the count): the ufunc loop behind `.sum`/`.mean`, without its wrapper.


def _logits_of(logits) -> np.ndarray:
    lv = np.asarray(logits, dtype=np.float64)
    if lv.ndim != 2 or lv.shape[0] < 1:
        raise ShapeError(f"expected batch x classes logits, got {lv.shape}")
    return lv


def _log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exp(logits - max) and log-softmax."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e, shifted - np.log(np.add.reduce(e, axis=-1, keepdims=True))


def entropy_loss(logits) -> tuple[float, np.ndarray]:
    """Mean over the batch of the prediction entropy (natural log)."""
    lv = _logits_of(logits)
    b = lv.shape[0]
    e, log_p = _log_softmax(lv)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    loss = np.add.reduce(-np.add.reduce(p * log_p, axis=1), axis=0) / b
    d_terms = -(1.0 / b)  # d loss / d (p * log_p), every term
    d_p = d_terms * log_p
    d_log_p = d_terms * p
    grad = d_log_p - np.exp(log_p) * np.add.reduce(d_log_p, axis=-1, keepdims=True)
    return float(loss), grad + p * (d_p - np.add.reduce(d_p * p, axis=-1, keepdims=True))


def cross_entropy_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels."""
    lv = _logits_of(logits)
    b = lv.shape[0]
    labels = _checked_labels(labels, b, lv.shape[1], "cross-entropy")
    _, log_p = _log_softmax(lv)
    rows = np.arange(b)
    loss = -(np.add.reduce(log_p[rows, labels], axis=0) / b)
    d_log_p = np.zeros(lv.shape)
    d_log_p[rows, labels] = -1.0 / b
    return float(loss), d_log_p - np.exp(log_p) * np.add.reduce(d_log_p, axis=-1, keepdims=True)


def per_sample_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy of each probability row, natural log; 0 log 0 treated as 0."""
    logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), 0.0)
    return -np.add.reduce(p * logp, axis=-1)


# ---------------------------------------------------------------------------
# parameter updates


def _descend(model: Model, result: ForwardResult, dlogits: np.ndarray, lr: float) -> None:
    grads = nm.backward(result.record, dlogits, model.head_weight)
    for layer, (d_gamma, d_beta) in zip(model.norm_layers, grads):
        layer.gamma = layer.gamma - lr * d_gamma
        layer.beta = layer.beta - lr * d_beta


def adapt_step(model: Model, memory_batch, lr: float) -> ForwardResult | None:
    """One entropy-minimization SGD step on every norm layer's scale/shift.

    The batch is forwarded with live batch statistics; all other weights
    stay untouched. Returns the forward result (whose `layer_stats` seed
    the memory-statistics normalization), or None when the batch is empty.
    """
    if memory_batch is None:
        return None
    batch = np.asarray(memory_batch, dtype=np.float64)
    if batch.shape[0] == 0:
        return None
    result = forward(model, batch, "batch", record=True)
    _, dlogits = entropy_loss(result.logits)
    _descend(model, result, dlogits, lr)
    return result


# Weight of each minibatch's statistics in the norm layers' running source statistics.
RUNNING_MOMENTUM = 0.1


def pretrain(model: Model, inputs, labels, epochs: int = 100, lr: float = 1e-2, seed: int = 0,
             batch_size: int = 32) -> None:
    """Cross-entropy SGD on labeled source data, training `model` in place.

    Only the norm layers' scale/shift train; the channel-mix and head
    weights keep their seeded initialization. Deterministic under the seed
    (shuffling is the only randomness). Norm layers accumulate running
    source statistics for the frozen source. Data (`checked_batch`) and
    settings are checked first; a floating-point overflow, division by zero
    or invalid operation raises FloatingPointError.
    """
    x, y = checked_batch(inputs, labels, model, "pretraining")
    checked_int(epochs, "pretraining: epochs")
    checked_int(batch_size, "pretraining: batch_size", 1)
    checked_number(lr, "pretraining: lr", lambda v: 0.0 < v < math.inf, "> 0 and finite")
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(epochs):
                order = rng.permutation(x.shape[0])
                for start in range(0, x.shape[0], batch_size):
                    take = order[start:start + batch_size]
                    _pretrain_minibatch(model, x[take], y[take], lr)
    except FloatingPointError as exc:
        raise FloatingPointError(f"pretraining: {exc}") from None


def _pretrain_minibatch(model: Model, xb: np.ndarray, yb: np.ndarray, lr: float) -> float:
    result = forward(model, xb, "batch", record=True)
    loss, dlogits = cross_entropy_loss(result.logits, yb)
    _descend(model, result, dlogits, lr)
    m = RUNNING_MOMENTUM
    for layer, stats in zip(model.norm_layers, result.layer_stats):
        layer.running_mean = (1.0 - m) * layer.running_mean + m * stats.mean
        layer.running_var = (1.0 - m) * layer.running_var + m * stats.var
    return loss


def evaluate_accuracy(model: Model, inputs, labels, batch_size: int = 64) -> float:
    x, y = checked_batch(inputs, labels, model, "evaluation")
    checked_int(batch_size, "evaluation: batch_size", 1)
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        xb, yb = x[start:start + batch_size], y[start:start + batch_size]
        result = forward(model, xb)
        correct += int((result.logits.argmax(axis=1) == yb).sum())
    return correct / x.shape[0]


# ---------------------------------------------------------------------------
# checkpoints

MODEL_FORMAT = "stta-model"
MODEL_VERSION = 1
# A checkpoint's `layers`: n >= 1 blocks of these three entries, then these two.
BLOCK_KINDS = ("channel_mix", "norm", "relu")
TAIL_KINDS = ("global_mean_pool", "classifier_head")


def _stats_dict(stats: ChannelStats | None):
    return None if stats is None else {"mean": stats.mean.tolist(), "var": stats.var.tolist()}


def _norm_dict(layer: NormLayer) -> dict:
    mn = layer.memory_norm
    return {
        "kind": "norm",
        "gamma": layer.gamma.tolist(),
        "beta": layer.beta.tolist(),
        "epsilon": layer.epsilon,
        "running_mean": layer.running_mean.tolist(),
        "running_var": layer.running_var.tolist(),
        "memory_norm": {
            "alpha": mn.alpha,
            "stats": _stats_dict(mn.memory_stats),
            "spatial_extent": mn.spatial_extent,
            "sample_count": mn.sample_count,
        },
        "ema": {"momentum": layer.ema.momentum, "stats": _stats_dict(layer.ema.stats)},
    }


def model_dict(model: Model) -> dict:
    layers = []
    for weight, layer in zip(model.mix_weights, model.norm_layers):
        layers += [{"kind": "channel_mix", "weight": weight.tolist()}, _norm_dict(layer), {"kind": "relu"}]
    head = {"kind": "classifier_head", "weight": model.head_weight.tolist(), "bias": model.head_bias.tolist()}
    layers += [{"kind": "global_mean_pool"}, head]
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "in_channels": model.in_channels,
        "num_classes": model.num_classes,
        "layers": layers,
    }


def is_real(value) -> bool:
    """A real number that is not a boolean (JSON and YAML booleans are ints to Python)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def checked_number(value, where: str, ok, rule: str):
    """`value` if it is a real number for which `ok` holds; ValueError naming `where` and `rule`."""
    if not (is_real(value) and ok(value)):
        raise ValueError(f"{where} must be a number {rule}, got {value!r}")
    return value


def checked_int(value, where: str, minimum: int = 0, below: int | None = None) -> int:
    """`value` if it is an integer >= `minimum` (and < `below`, if given); ValueError naming `where`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum
            or (below is not None and value >= below)):
        bounds = f">= {minimum}" + ("" if below is None else f" and < {below}")
        raise ValueError(f"{where} must be an integer {bounds}, got {value!r}")
    return int(value)


def required(entry, key: str, where: str, sep: str = "."):
    """`entry[key]`; ValueError naming `where` if `entry` is not a JSON object,
    or `where{sep}{key}` if it has no `key`."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in entry:
        raise ValueError(f"{where}{sep}{key} is missing")
    return entry[key]


def checked_array(value, where: str, shape: tuple | None = None, nonnegative: bool = False) -> np.ndarray:
    """A checkpoint field as an array of finite numbers (>= 0 if asked); ValueError naming `where`."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where} is not an array of numbers") from None
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{where} has shape {arr.shape}, want {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} must be finite")
    if nonnegative and (arr < 0.0).any():
        raise ValueError(f"{where} must be >= 0")
    return arr


def checked_batch(x, labels, model: Model, where: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The rule for data: a non-empty, finite batch x in_channels x length array and one integer label in
    [0, num_classes) per sample (or None), as float64 and intp; ValueError starting with `where` if not."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 3 or xv.shape[0] < 1 or xv.shape[1] != model.in_channels:
        raise ValueError(f"{where}: rejected batch of shape {xv.shape}; "
                         f"want a non-empty batch x {model.in_channels} x length array")
    if not np.isfinite(xv).all():
        raise ValueError(f"{where}: input values must be finite (no NaN/Inf)")
    return xv, None if labels is None else _checked_labels(labels, xv.shape[0], model.num_classes, where)


def _checked_labels(labels, count: int, classes: int, where: str) -> np.ndarray:
    """`checked_batch`'s label part: `count` integer labels in [0, `classes`), as intp."""
    lv = np.asarray(labels)
    if lv.shape != (count,):
        raise ValueError(f"{where}: labels of shape {lv.shape} for {count} samples")
    if lv.dtype.kind not in "iu" or np.minimum.reduce(lv) < 0 or np.maximum.reduce(lv) >= classes:
        got = f"{lv.dtype} labels" if lv.dtype.kind not in "iu" else f"labels from {lv.min()} to {lv.max()}"
        raise ValueError(f"{where}: labels must be integers in [0, {classes}), got {got}")
    return lv.astype(np.intp, copy=False)


def _stats_from(d, channels: int, where: str) -> ChannelStats | None:
    if d is None:
        return None
    return ChannelStats(
        checked_array(required(d, "mean", where), f"{where}.mean", (channels,)),
        checked_array(required(d, "var", where), f"{where}.var", (channels,), nonnegative=True))


def _norm_layer_from(entry: dict, channels: int, where: str) -> NormLayer:
    where_mn, where_ema = f"{where}.memory_norm", f"{where}.ema"
    mn, ema = required(entry, "memory_norm", where), required(entry, "ema", where)
    layer = NormLayer(
        channels,
        checked_number(required(entry, "epsilon", where), f"{where}.epsilon", lambda v: 0.0 < v < math.inf,
                       "> 0 and finite"),
        checked_number(required(mn, "alpha", where_mn), f"{where_mn}.alpha", lambda v: v >= 0.0, ">= 0"),
        checked_number(required(ema, "momentum", where_ema), f"{where_ema}.momentum",
                       lambda v: 0.0 < v <= 1.0, "in (0, 1]"))
    for name in ("gamma", "beta", "running_mean", "running_var"):
        setattr(layer, name, checked_array(required(entry, name, where), f"{where}.{name}", (channels,),
                                           nonnegative=name == "running_var"))
    stats = _stats_from(required(mn, "stats", where_mn), channels, f"{where_mn}.stats")
    if stats is not None:
        extent, count = (checked_int(required(mn, key, where_mn), f"{where_mn}.{key}", 1)
                         for key in ("spatial_extent", "sample_count"))
        try:
            layer.memory_norm.populate(stats, extent, count)
        except ValueError as exc:
            raise ValueError(f"{where_mn}: {exc}") from None
    layer.ema.stats = _stats_from(required(ema, "stats", where_ema), channels, f"{where_ema}.stats")
    return layer


def load_model_dict(payload: dict) -> Model:
    """The model a checkpoint holds; ValueError naming the entry or field it rejects."""
    if not isinstance(payload, dict):
        raise ValueError("model checkpoint must be a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError("not a model checkpoint")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model checkpoint version {payload.get('version')!r}")
    entries = required(payload, "layers", "model checkpoint", ": ")
    if not isinstance(entries, list):
        raise ValueError(f"model checkpoint: layers must be a list of layer entries, got {entries!r}")
    kinds = [entry.get("kind") if isinstance(entry, dict) else None for entry in entries]
    blocks = max(1, (len(kinds) - len(TAIL_KINDS)) // len(BLOCK_KINDS))
    for i, (kind, want) in enumerate(zip_longest(kinds, BLOCK_KINDS * blocks + TAIL_KINDS)):
        if kind != want:
            raise ValueError(f"model checkpoint: layers[{i}] has kind {kind!r}, want {want!r}; a model is "
                             f"n >= 1 blocks of {', '.join(BLOCK_KINDS)}, then {', '.join(TAIL_KINDS)}")
    channels, classes = (checked_int(required(payload, key, "model checkpoint", ": "),
                                     f"model checkpoint: {key}", 1) for key in ("in_channels", "num_classes"))
    where = [f"model checkpoint: layers[{i}]" for i in range(len(entries))]
    mix_weights = [checked_array(required(entries[i], "weight", where[i]),
                                 f"{where[i]}.weight (in_channels x in_channels)", (channels, channels))
                   for i in range(0, 3 * blocks, 3)]
    norm_layers = [_norm_layer_from(entries[i], channels, where[i]) for i in range(1, 3 * blocks, 3)]
    head = entries[-1]
    return Model(mix_weights, norm_layers,
                 checked_array(required(head, "weight", where[-1]),
                               f"{where[-1]}.weight (in_channels x num_classes)", (channels, classes)),
                 checked_array(required(head, "bias", where[-1]), f"{where[-1]}.bias (num_classes)",
                               (classes,)))


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_dict(model), fh)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model_dict(json.load(fh))
