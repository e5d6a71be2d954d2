"""Feed-forward classifier over batch x channel x length feature maps.

Channel-mixing (1x1) linear layers interleaved with normalization layers,
a global mean pool over the length axis, and a linear head. Only the
normalization layers' per-channel scale and shift ever train: under
cross-entropy during source pretraining, and under prediction-entropy
minimization during streaming adaptation. The channel-mix and head weights
keep their seeded initialization.

Normalization statistics come from one of four sources per forward pass:
live batch statistics, memory statistics with shrinkage correction,
an exponential moving average of test batches, or the frozen source
running statistics tracked during pretraining.
"""

from __future__ import annotations

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
from .numerics import ShapeError, Tensor

NORM_SOURCES = ("batch", "iobmn", "ema", "frozen")

LAYER_KINDS = ("channel_mix", "norm", "relu", "global_mean_pool", "classifier_head")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_channels: int
    out_channels: int

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


class ChannelMixLayer:
    kind = "channel_mix"

    def __init__(self, weight: np.ndarray) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)  # out_channels x in_channels


class NormLayer:
    """Per-channel scale/shift with selectable statistics source.

    `gamma` and `beta` are the adaptation targets. `running_mean/var` are
    the source statistics accumulated during pretraining (used by the
    frozen source). `memory_norm` and `ema` host the inference-time
    statistics providers.
    """

    kind = "norm"

    def __init__(self, channels: int, epsilon: float = 1e-5,
                 alpha: float = 4.0, ema_momentum: float = 0.9) -> None:
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.channels = int(channels)
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.epsilon = float(epsilon)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.memory_norm = MemoryNormState(alpha=alpha)
        self.ema = EmaNormState(momentum=ema_momentum)


class ReluLayer:
    kind = "relu"


class GlobalMeanPoolLayer:
    kind = "global_mean_pool"


class ClassifierHeadLayer:
    kind = "classifier_head"

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)  # in_channels x classes
        self.bias = np.asarray(bias, dtype=np.float64)


@dataclass
class ForwardResult:
    """Logits plus the statistics observed on the way through the network."""

    logits: Tensor
    early_mean: np.ndarray   # per sample, per channel: mean over length
    early_sigma: np.ndarray  # per sample, per channel: std over length
    layer_stats: list[ChannelStats]  # per norm layer: input batch statistics
    layer_extents: list[int]         # per norm layer: input spatial extent
    record: list[tuple] | None = None  # per layer: what its backward needs (batch source)


class Model:
    """Ordered layers; input is batch x in_channels x length."""

    def __init__(self, layers: list, in_channels: int, num_classes: int) -> None:
        if not layers or layers[-1].kind != "classifier_head":
            raise ValueError("model must end with exactly one classifier head")
        if any(l.kind == "classifier_head" for l in layers[:-1]):
            raise ValueError("classifier head must be unique and last")
        self.layers = layers
        self.in_channels = int(in_channels)
        self.num_classes = int(num_classes)

    @property
    def norm_layers(self) -> list[NormLayer]:
        return [l for l in self.layers if l.kind == "norm"]

    def clone(self) -> "Model":
        return load_model_dict(model_dict(self))

    def reset_inference_stats(self) -> None:
        """Clear memory/EMA statistics (fresh stream), keeping weights."""
        for layer in self.norm_layers:
            layer.memory_norm = MemoryNormState(alpha=layer.memory_norm.alpha)
            layer.ema = EmaNormState(momentum=layer.ema.momentum)


def default_layer_specs(channels: int = 16, num_classes: int = 3, blocks: int = 3) -> list[LayerSpec]:
    specs: list[LayerSpec] = []
    for _ in range(blocks):
        specs.append(LayerSpec("channel_mix", channels, channels))
        specs.append(LayerSpec("norm", channels, channels))
        specs.append(LayerSpec("relu", channels, channels))
    specs.append(LayerSpec("global_mean_pool", channels, channels))
    specs.append(LayerSpec("classifier_head", channels, num_classes))
    return specs


def build_model(specs: list[LayerSpec], seed: int = 0) -> Model:
    """Construct a model with seeded Gaussian weight init (deterministic)."""
    if not specs:
        raise ValueError("empty layer specs")
    for prev, cur in zip(specs, specs[1:]):
        if prev.out_channels != cur.in_channels:
            raise ValueError(
                f"channel extents do not chain: {prev.kind}({prev.out_channels}) -> {cur.kind}({cur.in_channels})")
    rng = np.random.default_rng(seed)
    layers: list = []
    for spec in specs:
        if spec.kind == "channel_mix":
            scale = 1.0 / math.sqrt(spec.in_channels)
            layers.append(ChannelMixLayer(rng.normal(0.0, scale, size=(spec.out_channels, spec.in_channels))))
        elif spec.kind == "norm":
            layers.append(NormLayer(spec.out_channels))
        elif spec.kind == "relu":
            layers.append(ReluLayer())
        elif spec.kind == "global_mean_pool":
            layers.append(GlobalMeanPoolLayer())
        else:
            scale = 1.0 / math.sqrt(spec.in_channels)
            layers.append(ClassifierHeadLayer(
                rng.normal(0.0, scale, size=(spec.in_channels, spec.out_channels)),
                np.zeros(spec.out_channels)))
    return Model(layers, specs[0].in_channels, specs[-1].out_channels)


def default_model(channels: int = 16, num_classes: int = 3, blocks: int = 3, seed: int = 0) -> Model:
    return build_model(default_layer_specs(channels, num_classes, blocks), seed=seed)


# ---------------------------------------------------------------------------
# forward


def forward(model: Model, x, norm_source: str = "batch") -> ForwardResult:
    """Run the network, collecting early per-sample and per-layer statistics.

    Early statistics are each sample's per-channel (mean, std over length)
    of the input to the first norm layer; `layer_stats` are the live batch
    statistics of every norm layer's input. With the `ema` source, each
    norm layer folds the live statistics into its moving average as the
    pass reaches it. With the `batch` source the result also carries the
    record that `numerics.backward` differentiates.
    """
    if norm_source not in NORM_SOURCES:
        raise ValueError(f"unknown norm source {norm_source!r}")
    xv = (x if isinstance(x, Tensor) else Tensor(x)).data
    if xv.ndim != 3 or xv.shape[1] != model.in_channels:
        raise ShapeError(f"expected batch x {model.in_channels} x length input, got {xv.shape}")
    if xv.shape[0] < 1:
        raise ShapeError("empty batch")

    early_mean = early_sigma = None
    layer_stats: list[ChannelStats] = []
    layer_extents: list[int] = []
    record = [] if norm_source == "batch" else None
    out = xv
    for layer in model.layers:
        kind = layer.kind
        if kind == "channel_mix":
            out, saved = nm.channel_mix(out, layer.weight)
        elif kind == "norm":
            stats = batch_channel_stats(out)
            layer_stats.append(stats)
            layer_extents.append(out.shape[2])
            if early_mean is None:
                early_mean = out.mean(axis=2)
                centered = out - early_mean[:, :, None]
                early_sigma = np.sqrt(np.mean(centered * centered, axis=2))
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
            out, saved = normalize(out, mean, var, layer.gamma, layer.beta, layer.epsilon)
        elif kind == "relu":
            out, saved = nm.relu(out)
        elif kind == "global_mean_pool":
            out, saved = nm.global_mean_pool(out)
        else:
            out, saved = nm.classifier_head(out, layer.weight, layer.bias)
        if record is not None:
            record.append((kind, saved))
    if early_mean is None:
        raise ValueError("model has no norm layer")
    return ForwardResult(Tensor._wrap(out), early_mean, early_sigma, layer_stats, layer_extents, record)


# ---------------------------------------------------------------------------
# losses; each returns the loss and its gradient with respect to the logits.
# The gradients take the reference differentiator's operations in its order
# (softmax and exp(log-softmax) both appear), so they equal it bit for bit;
# the closed forms round differently.


def _logits_of(logits) -> np.ndarray:
    lv = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if lv.ndim != 2 or lv.shape[0] < 1:
        raise ShapeError(f"expected batch x classes logits, got {lv.shape}")
    return lv


def _log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exp(logits - max) and log-softmax."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e, shifted - np.log(e.sum(axis=-1, keepdims=True))


def entropy_loss(logits) -> tuple[float, np.ndarray]:
    """Mean over the batch of the prediction entropy (natural log)."""
    lv = _logits_of(logits)
    b = lv.shape[0]
    e, log_p = _log_softmax(lv)
    p = e / e.sum(axis=-1, keepdims=True)
    loss = (-((p * log_p).sum(axis=(1,)))).mean(axis=(0,))
    d_terms = -(1.0 / b)  # d loss / d (p * log_p), every term
    d_p = d_terms * log_p
    d_log_p = d_terms * p
    grad = d_log_p - np.exp(log_p) * d_log_p.sum(axis=-1, keepdims=True)
    return float(loss), grad + p * (d_p - (d_p * p).sum(axis=-1, keepdims=True))


def cross_entropy_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels."""
    lv = _logits_of(logits)
    b = lv.shape[0]
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (b,) or (labels.min() < 0 or labels.max() >= lv.shape[1]):
        raise ValueError(f"need one class index in [0, {lv.shape[1]}) for each of {b} rows")
    _, log_p = _log_softmax(lv)
    rows = np.arange(b)
    loss = -(log_p[rows, labels].mean(axis=(0,)))
    d_log_p = np.zeros(lv.shape)
    d_log_p[rows, labels] = -1.0 / b
    return float(loss), d_log_p - np.exp(log_p) * d_log_p.sum(axis=-1, keepdims=True)


def per_sample_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Entropy of each probability row, natural log; 0 log 0 treated as 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), 0.0)
    return -(p * logp).sum(axis=-1)


# ---------------------------------------------------------------------------
# parameter updates


def _descend(model: Model, result: ForwardResult, dlogits: np.ndarray, lr: float) -> None:
    for layer, (d_gamma, d_beta) in zip(model.norm_layers, nm.backward(result.record, dlogits)):
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
    batch = memory_batch if isinstance(memory_batch, Tensor) else Tensor(memory_batch)
    if batch.data.shape[0] == 0:
        return None
    result = forward(model, batch, "batch")
    _, dlogits = entropy_loss(result.logits)
    _descend(model, result, dlogits, lr)
    return result


@dataclass
class PretrainResult:
    model: Model
    source_accuracy: float
    final_loss: float


def pretrain(model: Model, inputs, labels, epochs: int = 100, lr: float = 1e-2, seed: int = 0,
             batch_size: int = 32, running_momentum: float = 0.1) -> PretrainResult:
    """Cross-entropy SGD on labeled source data.

    Only the norm layers' scale/shift train; the channel-mix and head
    weights keep their seeded initialization. Deterministic under the seed
    (shuffling is the only randomness). Norm layers accumulate running
    source statistics for the frozen source.
    """
    x = np.asarray(inputs.data if isinstance(inputs, Tensor) else inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if x.ndim != 3 or x.shape[0] != y.shape[0]:
        raise ValueError(f"inputs {x.shape} and labels {y.shape} do not line up")
    if y.size and (y.min() < 0 or y.max() >= model.num_classes):
        raise ValueError("class labels out of range")
    rng = np.random.default_rng(seed)
    final_loss = math.nan
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            take = order[start:start + batch_size]
            final_loss = _pretrain_minibatch(model, x[take], y[take], lr, running_momentum)
    accuracy = evaluate_accuracy(model, x, y, batch_size=batch_size)
    return PretrainResult(model, accuracy, final_loss)


def _pretrain_minibatch(model: Model, xb: np.ndarray, yb: np.ndarray, lr: float,
                        running_momentum: float) -> float:
    result = forward(model, Tensor._wrap(xb), "batch")
    loss, dlogits = cross_entropy_loss(result.logits, yb)
    _descend(model, result, dlogits, lr)
    m = running_momentum
    for layer, stats in zip(model.norm_layers, result.layer_stats):
        layer.running_mean = (1.0 - m) * layer.running_mean + m * stats.mean
        layer.running_var = (1.0 - m) * layer.running_var + m * stats.var
    return loss


def evaluate_accuracy(model: Model, inputs, labels, batch_size: int = 64) -> float:
    x = np.asarray(inputs.data if isinstance(inputs, Tensor) else inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if x.shape[0] == 0:
        return 0.0
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        xb, yb = x[start:start + batch_size], y[start:start + batch_size]
        result = forward(model, Tensor._wrap(xb))
        correct += int((result.logits.data.argmax(axis=1) == yb).sum())
    return correct / x.shape[0]


# ---------------------------------------------------------------------------
# checkpoints

MODEL_FORMAT = "stta-model"
MODEL_VERSION = 1


def _stats_dict(stats: ChannelStats | None):
    if stats is None:
        return None
    return {"mean": stats.mean.tolist(), "var": stats.var.tolist()}


def _stats_from(d) -> ChannelStats | None:
    return None if d is None else ChannelStats(d["mean"], d["var"])


def model_dict(model: Model) -> dict:
    layers = []
    for layer in model.layers:
        if layer.kind == "channel_mix":
            layers.append({"kind": layer.kind, "weight": layer.weight.tolist()})
        elif layer.kind == "norm":
            mn = layer.memory_norm
            layers.append({
                "kind": layer.kind,
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
            })
        elif layer.kind == "classifier_head":
            layers.append({"kind": layer.kind, "weight": layer.weight.tolist(), "bias": layer.bias.tolist()})
        else:
            layers.append({"kind": layer.kind})
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "in_channels": model.in_channels,
        "num_classes": model.num_classes,
        "layers": layers,
    }


def load_model_dict(payload: dict) -> Model:
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError("not a model checkpoint")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model checkpoint version {payload.get('version')!r}")
    layers: list = []
    for entry in payload["layers"]:
        kind = entry["kind"]
        if kind == "channel_mix":
            layers.append(ChannelMixLayer(np.array(entry["weight"])))
        elif kind == "norm":
            gamma = np.array(entry["gamma"])
            layer = NormLayer(gamma.shape[0], entry["epsilon"],
                              entry["memory_norm"]["alpha"], entry["ema"]["momentum"])
            layer.gamma = gamma
            layer.beta = np.array(entry["beta"])
            layer.running_mean = np.array(entry["running_mean"])
            layer.running_var = np.array(entry["running_var"])
            stats = _stats_from(entry["memory_norm"]["stats"])
            if stats is not None:
                layer.memory_norm.populate(stats, entry["memory_norm"]["spatial_extent"],
                                           entry["memory_norm"]["sample_count"])
            layer.ema.stats = _stats_from(entry["ema"]["stats"])
            layers.append(layer)
        elif kind == "relu":
            layers.append(ReluLayer())
        elif kind == "global_mean_pool":
            layers.append(GlobalMeanPoolLayer())
        elif kind == "classifier_head":
            layers.append(ClassifierHeadLayer(np.array(entry["weight"]), np.array(entry["bias"])))
        else:
            raise ValueError(f"unknown layer kind {kind!r} in checkpoint")
    return Model(layers, payload["in_channels"], payload["num_classes"])


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_dict(model), fh)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model_dict(json.load(fh))
