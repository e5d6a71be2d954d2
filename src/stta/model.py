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

A model checkpoint holds the `Model`'s fields; one `numerics.checked_fields`
call reads each of its JSON objects and refuses a missing or unknown key.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

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
from .numerics import FINITE_POSITIVE, ShapeError, checked_array, checked_fields, checked_int, checked_number

NORM_SOURCES = ("batch", "iobmn", "ema", "frozen")


class NormLayer:
    """Per-channel scale/shift with selectable statistics source.

    `gamma` and `beta` are the adaptation targets. `running_mean/var` are
    the source statistics accumulated during pretraining (used by the
    frozen source). `memory_norm` and `ema` host the inference-time
    statistics providers.
    """

    def __init__(self, channels: int, epsilon: float = 1e-5) -> None:
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.epsilon = float(epsilon)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.memory_norm = MemoryNormState()
        self.ema = EmaNormState()


@dataclass
class ForwardResult:
    """Logits plus the statistics observed on the way through the network."""

    logits: np.ndarray
    early_mean: np.ndarray | None   # per sample, per channel: mean over length; None when recorded
    early_sigma: np.ndarray | None  # per sample, per channel: std over length; None when recorded
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
        return copy.deepcopy(self)

    def reset_inference_stats(self) -> None:
        """Clear memory/EMA statistics (fresh stream), keeping weights."""
        for layer in self.norm_layers:
            layer.memory_norm = MemoryNormState(alpha=layer.memory_norm.alpha)
            layer.ema = EmaNormState(momentum=layer.ema.momentum)


def default_model(channels: int = 16, num_classes: int = 3, blocks: int = 3, seed: int = 0) -> Model:
    """Seeded Gaussian weights, drawn block by block and then the head (deterministic)."""
    checked_int(channels, "channels", 1)
    checked_int(num_classes, "num_classes", 1)
    checked_int(seed, "seed")
    checked_int(blocks, "blocks", 1)
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

    Activations are channel rows, one C-contiguous `(C, B*L)` array from
    the first mix (`weight @ rows`) to the pool, in every forward. Early
    statistics are each sample's per-channel (mean, std over length) of the
    input to the first norm layer, as `(B, C)` transposed views;
    `layer_stats` are the live batch statistics of every norm layer's
    input. With the `ema` source, each norm layer folds the live statistics
    into its moving average as the pass reaches it. With `record` (batch
    source only; the training steps ask for it) each block keeps what
    `numerics.backward` differentiates, and the result carries no early
    statistics, which no training step reads.
    """
    if norm_source not in NORM_SOURCES:
        raise ValueError(f"unknown norm source {norm_source!r}")
    if record and norm_source != "batch":
        raise ValueError(f"only a batch-statistics forward can be recorded, not {norm_source!r}")
    xv = _real_samples(x, "forward")
    if xv.ndim != 3 or xv.shape[1] != model.in_channels:
        raise ShapeError(f"expected batch x {model.in_channels} x length input, got {xv.shape}")
    if xv.shape[0] < 1:
        raise ShapeError("empty batch")

    early_mean = early_sigma = None
    layer_stats: list[ChannelStats] = []
    saved_blocks = [] if record else None
    b, length = xv.shape[0], xv.shape[2]
    rows = xv.transpose(1, 0, 2).reshape(-1, b * length)  # the input's channel rows
    for weight, layer in zip(model.mix_weights, model.norm_layers):
        rows = weight @ rows
        stats, centered = batch_channel_stats(rows)
        layer_stats.append(stats)
        if early_mean is None and not record:  # np.add.reduce / n: `.mean` without its Python wrapper
            by_sample = rows.reshape(-1, b, length)
            sample_mean = np.add.reduce(by_sample, axis=2) / length
            deviation = by_sample - sample_mean[:, :, None]
            early_mean, early_sigma = sample_mean.T, np.sqrt(np.add.reduce(deviation * deviation, axis=2) / length).T
        mean, var = stats
        if norm_source == "iobmn":  # looked up on its module, where the benchmark's tracer counts the shrinkage
            mean, var = normalization.corrected_stats(layer.memory_norm, stats)
        elif norm_source == "ema":
            mean, var = layer.ema.update(stats)
        elif norm_source == "frozen":  # the source statistics of pretraining
            mean, var = layer.running_mean, layer.running_var
        if norm_source != "batch":  # the batch's own mean centred the rows already
            np.subtract(rows, mean.reshape(-1, 1), out=centered)
        # A serving block normalizes its rows in place; a recorded one into new rows, saving what the backward reads.
        rows, saved = normalize(centered, var, layer.gamma, layer.beta, layer.epsilon, record)
        np.maximum(rows, 0.0, out=rows)  # relu, in place: +0.0 for every non-positive entry, -0.0 included
        if record:  # the relu mask: where the output, and so the input, is positive
            saved_blocks.append((weight, saved, rows > 0.0))
    # The pool, as a C-contiguous (B, C) array: the head's product rounds by the layout of its operands.
    pooled = np.ascontiguousarray((np.add.reduce(rows.reshape(-1, b, length), axis=2) / length).T)
    logits = pooled @ model.head_weight + model.head_bias.reshape(1, -1)
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
    """Entropy of each probability row, natural log; a 0 entry adds 0 * log(1e-300) = -0.0, so 0 log 0 is 0."""
    return -np.add.reduce(p * np.log(np.maximum(p, 1e-300)), axis=-1)


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
    batch = _real_samples(memory_batch, "adaptation step")
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
    checked_number(lr, "pretraining: lr", FINITE_POSITIVE)
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


# ---------------------------------------------------------------------------
# checkpoints

MODEL_FORMAT = "stta-model"
MODEL_VERSION = 2


def _stats_dict(stats: ChannelStats | None):
    return None if stats is None else {"mean": stats.mean.tolist(), "var": stats.var.tolist()}


def _norm_dict(layer: NormLayer) -> dict:
    """A norm layer's values; not `alpha` or `momentum`, engine settings that every `Engine` sets on its model."""
    mn = layer.memory_norm
    return {
        "gamma": layer.gamma.tolist(),
        "beta": layer.beta.tolist(),
        "epsilon": layer.epsilon,
        "running_mean": layer.running_mean.tolist(),
        "running_var": layer.running_var.tolist(),
        "memory_norm": {"stats": _stats_dict(mn.memory_stats), "spatial_extent": mn.spatial_extent,
                        "sample_count": mn.sample_count},
        "ema": {"stats": _stats_dict(layer.ema.stats)},
    }


def model_dict(model: Model) -> dict:
    """The checkpoint: the `Model` fields, each value once; channels and classes are the weights' shapes."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mix_weights": [weight.tolist() for weight in model.mix_weights],
        "norm_layers": [_norm_dict(layer) for layer in model.norm_layers],
        "head_weight": model.head_weight.tolist(),
        "head_bias": model.head_bias.tolist(),
    }


def _real_samples(x, where: str) -> np.ndarray:
    """`x` as float64 (a float64 array is not copied) if it holds real numbers (bool, integer or float), the
    dtype rule of `checked_batch`, `forward` and `adapt_step`; ValueError naming `where` and the dtype if not."""
    try:
        xv = np.asarray(x)
    except ValueError:  # nested sequences of unequal lengths
        raise ValueError(f"{where}: rejected ragged samples; want one array of real numbers") from None
    if xv.dtype.kind not in "biuf":
        raise ValueError(f"{where}: samples must be real numbers (bool, integer or float), got {xv.dtype} samples")
    return xv.astype(np.float64, copy=False)


def checked_batch(x, labels, model: Model, where: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The rule for data: a non-empty, finite batch x in_channels x length array of real numbers (bool,
    integer or float) and one integer label in [0, num_classes) per sample (or None), as float64 (a float64
    array is not copied) and intp; ValueError starting with `where` if not."""
    xv = _real_samples(x, where)
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
    mean, var = checked_fields(d, ("mean", "var"), where)
    return ChannelStats(checked_array(mean, f"{where}.mean", (channels,)),
                        checked_array(var, f"{where}.var", (channels,), nonnegative=True))


def _norm_layer_from(entry, channels: int, where: str) -> NormLayer:
    names = ("gamma", "beta", "running_mean", "running_var")
    *arrays, epsilon, mn, ema = checked_fields(entry, (*names, "epsilon", "memory_norm", "ema"), where)
    where_mn = f"{where}.memory_norm"
    stats, extent, count = checked_fields(mn, ("stats", "spatial_extent", "sample_count"), where_mn)
    layer = NormLayer(channels, checked_number(epsilon, f"{where}.epsilon", FINITE_POSITIVE))
    for name, value in zip(names, arrays):
        setattr(layer, name, checked_array(value, f"{where}.{name}", (channels,), nonnegative=name == "running_var"))
    stats = _stats_from(stats, channels, f"{where_mn}.stats")
    if stats is None:  # no sample size to state: exactly the 0s the writer emits
        for key, value in (("spatial_extent", extent), ("sample_count", count)):
            if type(value) is not int or value != 0:
                raise ValueError(f"{where_mn}.{key} must be the integer 0 where stats is null, got {value!r}")
    else:
        extent = checked_int(extent, f"{where_mn}.spatial_extent", 1)
        count = checked_int(count, f"{where_mn}.sample_count", 1)
        try:
            layer.memory_norm = MemoryNormState(memory_stats=stats, spatial_extent=extent, sample_count=count)
        except ValueError as exc:
            raise ValueError(f"{where_mn}: {exc}") from None
    layer.ema.stats = _stats_from(*checked_fields(ema, ("stats",), f"{where}.ema"), channels, f"{where}.ema.stats")
    return layer


def load_model_dict(payload: dict) -> Model:
    """The model a checkpoint holds; ValueError naming the field it rejects, a missing or unknown key included."""
    if not isinstance(payload, dict):
        raise ValueError("model checkpoint must be a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError("not a model checkpoint")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model checkpoint version {payload.get('version')!r}")
    top = "model checkpoint"
    _, _, mixes, norms, head_weight, head_bias = checked_fields(
        payload, ("format", "version", "mix_weights", "norm_layers", "head_weight", "head_bias"), top, ": ")
    for key, entries in (("mix_weights", mixes), ("norm_layers", norms)):
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"{top}: {key} must be a non-empty list, got {entries!r}")
    if len(mixes) != len(norms):
        raise ValueError(f"{top}: {len(mixes)} mix_weights and {len(norms)} norm_layers, want one of each per block")
    channels = len(mixes[0]) if isinstance(mixes[0], list) else 0  # the first mix's rows, its shape checked next
    mix_weights = [checked_array(weight, f"{top}: mix_weights[{i}]", (channels, channels))
                   for i, weight in enumerate(mixes)]
    norm_layers = [_norm_layer_from(entry, channels, f"{top}: norm_layers[{i}]") for i, entry in enumerate(norms)]
    head_weight = checked_array(head_weight, f"{top}: head_weight")
    classes = head_weight.shape[1] if head_weight.ndim == 2 else 0
    if head_weight.shape != (channels, classes) or classes < 1:
        raise ValueError(f"{top}: head_weight has shape {head_weight.shape}, want {channels} x classes, classes >= 1")
    head_bias = checked_array(head_bias, f"{top}: head_bias", (classes,))
    return Model(mix_weights, norm_layers, head_weight, head_bias)


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_dict(model), fh)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model_dict(json.load(fh))
