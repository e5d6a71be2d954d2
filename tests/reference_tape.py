"""Tape-based reverse-mode differentiation: the reference for the kernels.

Just enough array machinery for a small normalization-layer classifier:
2-D matrix products, axis reductions, stable softmax / log-softmax, and
explicit (never implicit) broadcasting. Differentiation is recorded on an
explicit :class:`Tape`; gradients accumulate additively across fan-out and
are returned per trainable slot by :func:`backward`.

The second half re-expresses the model's forward pass, losses and update
steps on the tape. The fused kernels in `stta.numerics` and `stta.model`
must reproduce these results bit for bit (see test_kernels.py); the
finite-difference tests check the tape itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from stta.model import NORM_SOURCES, ForwardResult, Model, NormLayer
from stta.normalization import ChannelStats, StateError, batch_channel_stats, normalize
from stta.numerics import ShapeError, Tensor


class TapeError(RuntimeError):
    """Misuse of the recording/backward machinery."""


class Var:
    """A value recorded on a tape; participates in the same ops as Tensor."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: "Tape", index: int, value: np.ndarray) -> None:
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def tensor(self) -> Tensor:
        return Tensor._wrap(self.value.copy())

    def __repr__(self) -> str:
        return f"Var(index={self.index}, shape={self.shape})"


class _Record:
    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp) -> None:
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Ordered record of differentiable operations.

    Single-writer: a tape must not be shared across threads while
    recording. Backward traverses in exact reverse of record order.
    """

    def __init__(self) -> None:
        self._records: list[_Record] = []
        self._trainable: list[Var] = []

    def variable(self, value: Union[Tensor, np.ndarray], trainable: bool = False) -> Var:
        """Enter a leaf value on the tape; trainable leaves are gradient slots."""
        arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        var = self._emit(arr, (), None)
        if trainable:
            self._trainable.append(var)
        return var

    @property
    def trainable(self) -> tuple[Var, ...]:
        return tuple(self._trainable)

    def _emit(self, value: np.ndarray, parents, vjp) -> Var:
        var = Var(self, len(self._records), value)
        self._records.append(_Record(tuple(p.index for p in parents), vjp))
        return var


ArrayLike = Union[Tensor, Var, np.ndarray, Sequence, float, int]


def _value(x: ArrayLike) -> np.ndarray:
    if isinstance(x, Var):
        return x.value
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _tape_of(*xs: ArrayLike) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Var):
            if tape is not None and tape is not x.tape:
                raise TapeError("operands recorded on different tapes")
            tape = x.tape
    return tape


def _apply(tape: Tape | None, out: np.ndarray, parents, vjp):
    if tape is None:
        return Tensor._wrap(out)
    recorded = [p for p in parents if isinstance(p, Var)]
    # Constants occupy no slot; the vjp still returns one grad per Var parent.
    return tape._emit(out, recorded, vjp)


def _check_axes(shape: tuple[int, ...], axes: Iterable[int]) -> tuple[int, ...]:
    axes = tuple(axes)
    if len(axes) == 0:
        raise ValueError("reduction needs at least one axis")
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axes {axes}")
    for a in axes:
        if not (0 <= a < len(shape)):
            raise ValueError(f"axis {a} out of range for shape {shape}")
    return axes


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: ArrayLike, b: ArrayLike):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add: shapes {av.shape} vs {bv.shape}")
    tape = _tape_of(a, b)

    def vjp(g):
        out = []
        if isinstance(a, Var):
            out.append(g)
        if isinstance(b, Var):
            out.append(g)
        return out

    return _apply(tape, av + bv, (a, b), vjp)


def sub(a: ArrayLike, b: ArrayLike):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"sub: shapes {av.shape} vs {bv.shape}")
    tape = _tape_of(a, b)

    def vjp(g):
        out = []
        if isinstance(a, Var):
            out.append(g)
        if isinstance(b, Var):
            out.append(-g)
        return out

    return _apply(tape, av - bv, (a, b), vjp)


def mul(a: ArrayLike, b: ArrayLike):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"mul: shapes {av.shape} vs {bv.shape}")
    tape = _tape_of(a, b)

    def vjp(g):
        out = []
        if isinstance(a, Var):
            out.append(g * bv)
        if isinstance(b, Var):
            out.append(g * av)
        return out

    return _apply(tape, av * bv, (a, b), vjp)


def neg(a: ArrayLike):
    av = _value(a)
    return _apply(_tape_of(a), -av, (a,), lambda g: [-g])


def add_scalar(a: ArrayLike, c: float):
    av = _value(a)
    return _apply(_tape_of(a), av + float(c), (a,), lambda g: [g])


def relu(a: ArrayLike):
    av = _value(a)
    mask = av > 0.0
    return _apply(_tape_of(a), np.where(mask, av, 0.0), (a,), lambda g: [g * mask])


def rsqrt(a: ArrayLike):
    """Elementwise 1/sqrt(x); caller guarantees strictly positive input."""
    av = _value(a)
    out = 1.0 / np.sqrt(av)
    return _apply(_tape_of(a), out, (a,), lambda g: [g * (-0.5) * out / av])


def transpose(a: ArrayLike, perm: Sequence[int]):
    av = _value(a)
    perm = tuple(perm)
    if sorted(perm) != list(range(av.ndim)):
        raise ShapeError(f"transpose: invalid permutation {perm} for ndim {av.ndim}")
    inv = np.argsort(perm)
    return _apply(_tape_of(a), np.transpose(av, perm), (a,), lambda g: [np.transpose(g, inv)])


def reshape(a: ArrayLike, shape: Sequence[int]):
    av = _value(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != av.size:
        raise ShapeError(f"reshape: cannot view {av.shape} as {shape}")
    old = av.shape
    return _apply(_tape_of(a), av.reshape(shape), (a,), lambda g: [g.reshape(old)])


def expand(v: ArrayLike, shape: Sequence[int], axes: Sequence[int]):
    """Place v's dimensions at `axes` of `shape` and tile across the rest.

    The only broadcasting permitted anywhere in this module: explicit, with
    the target shape spelled out (e.g. a per-channel vector expanded over a
    batch-by-channel-by-length feature map).
    """
    vv = _value(v)
    shape = tuple(int(s) for s in shape)
    axes = tuple(axes)
    if len(axes) != vv.ndim:
        raise ShapeError(f"expand: {len(axes)} axes for ndim {vv.ndim}")
    if tuple(vv.shape) != tuple(shape[a] for a in axes):
        raise ShapeError(f"expand: value shape {vv.shape} does not fit {shape} at axes {axes}")
    if list(axes) != sorted(axes):
        raise ShapeError("expand: axes must be increasing")
    view = [1] * len(shape)
    for a, extent in zip(axes, vv.shape):
        view[a] = extent
    other = tuple(i for i in range(len(shape)) if i not in axes)
    out = np.broadcast_to(vv.reshape(view), shape).copy()

    def vjp(g):
        return [g.sum(axis=other) if other else g.copy()]

    return _apply(_tape_of(v), out, (v,), vjp)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a: ArrayLike, axes: Sequence[int]):
    av = _value(a)
    axes = _check_axes(av.shape, axes)
    shape = av.shape

    def vjp(g):
        view = [1 if i in axes else shape[i] for i in range(len(shape))]
        return [np.broadcast_to(g.reshape(view), shape).copy()]

    return _apply(_tape_of(a), av.sum(axis=axes), (a,), vjp)


def reduce_mean(a: ArrayLike, axes: Sequence[int]):
    av = _value(a)
    axes = _check_axes(av.shape, axes)
    shape = av.shape
    count = 1
    for ax in axes:
        count *= shape[ax]

    def vjp(g):
        view = [1 if i in axes else shape[i] for i in range(len(shape))]
        return [np.broadcast_to(g.reshape(view) / count, shape).copy()]

    return _apply(_tape_of(a), av.mean(axis=axes), (a,), vjp)


def reduce_var(a: ArrayLike, axes: Sequence[int]):
    """Population variance (divide by count) about the mean over `axes`."""
    av = _value(a)
    axes = _check_axes(av.shape, axes)
    shape = av.shape
    count = 1
    for ax in axes:
        count *= shape[ax]
    mean = av.mean(axis=axes, keepdims=True)
    centered = av - mean
    out = np.mean(centered * centered, axis=axes)

    def vjp(g):
        view = [1 if i in axes else shape[i] for i in range(len(shape))]
        # d var / d x = 2 (x - mean) / count; the term through the mean cancels.
        return [np.broadcast_to(g.reshape(view), shape) * (2.0 / count) * centered]

    return _apply(_tape_of(a), out, (a,), vjp)


# ---------------------------------------------------------------------------
# matrix product and row-wise classification ops


def matmul(a: ArrayLike, b: ArrayLike):
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner extents {av.shape} x {bv.shape} do not agree")
    tape = _tape_of(a, b)

    def vjp(g):
        out = []
        if isinstance(a, Var):
            out.append(g @ bv.T)
        if isinstance(b, Var):
            out.append(av.T @ g)
        return out

    return _apply(tape, av @ bv, (a, b), vjp)


def softmax(a: ArrayLike):
    """Row-normalized exponentials over the last axis, max-subtracted."""
    av = _value(a)
    if av.ndim < 1 or av.shape[-1] < 1:
        raise ShapeError(f"softmax: need at least one class, got shape {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return [p * (g - inner)]

    return _apply(_tape_of(a), p, (a,), vjp)


def log_softmax(a: ArrayLike):
    av = _value(a)
    if av.ndim < 1 or av.shape[-1] < 1:
        raise ShapeError(f"log_softmax: need at least one class, got shape {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def vjp(g):
        return [g - p * g.sum(axis=-1, keepdims=True)]

    return _apply(_tape_of(a), out, (a,), vjp)


def take_per_row(a: ArrayLike, indices: Sequence[int]):
    """Pick one column per row of a 2-D array: out[i] = a[i, indices[i]]."""
    av = _value(a)
    if av.ndim != 2:
        raise ShapeError(f"take_per_row: expected 2-D input, got {av.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != (av.shape[0],):
        raise ShapeError(f"take_per_row: {idx.shape[0] if idx.ndim else 0} indices for {av.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[1]):
        raise ValueError("take_per_row: index out of range")
    rows = np.arange(av.shape[0])
    shape = av.shape

    def vjp(g):
        full = np.zeros(shape)
        full[rows, idx] = g
        return [full]

    return _apply(_tape_of(a), av[rows, idx], (a,), vjp)


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, loss: Var) -> dict[Var, Tensor]:
    """Gradients of a recorded scalar loss for every trainable slot.

    Trainable slots the loss does not depend on receive zero gradients;
    non-trainable slots receive none.
    """
    if not isinstance(loss, Var) or loss.tape is not tape:
        raise TapeError("loss is not recorded on this tape")
    if loss.value.shape != ():
        raise TapeError(f"loss must be scalar, got shape {loss.value.shape}")

    grads: list[np.ndarray | None] = [None] * len(tape._records)
    grads[loss.index] = np.ones(())
    for i in range(loss.index, -1, -1):
        g = grads[i]
        if g is None:
            continue
        rec = tape._records[i]
        if rec.vjp is None:
            continue
        for parent_index, pg in zip(rec.parents, rec.vjp(g)):
            if grads[parent_index] is None:
                grads[parent_index] = np.array(pg, dtype=np.float64)
            else:
                grads[parent_index] = grads[parent_index] + pg
    out: dict[Var, Tensor] = {}
    for var in tape._trainable:
        g = grads[var.index]
        if g is None:
            g = np.zeros_like(var.value)
        out[var] = Tensor._wrap(np.asarray(g, dtype=np.float64))
    return out


# ---------------------------------------------------------------------------
# the model on the tape


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else x.data


def _mix(x, weight):
    # batch x c_in x length -> batch x c_out x length via a 2-D product
    b, c, length = _val(x).shape
    cols = reshape(transpose(x, (1, 0, 2)), (c, b * length))
    mixed = matmul(weight, cols)
    c_out = _val(mixed).shape[0]
    return transpose(reshape(mixed, (c_out, b, length)), (1, 0, 2))


def _norm_batch(x, gamma, beta, epsilon):
    shape = _val(x).shape
    mean = reduce_mean(x, (0, 2))
    var = reduce_var(x, (0, 2))
    inv = rsqrt(add_scalar(var, epsilon))
    centered = sub(x, expand(mean, shape, (1,)))
    scaled = mul(centered, expand(inv, shape, (1,)))
    return add(mul(scaled, expand(gamma, shape, (1,))), expand(beta, shape, (1,)))


def forward(model: Model, x, norm_source: str = "batch",
            norm_params: dict[int, tuple] | None = None) -> ForwardResult:
    """Run the network, collecting early per-sample and per-layer statistics.

    `x` may be a Tensor (pure evaluation) or a tape Var (differentiable;
    batch statistics only). `norm_params` substitutes (gamma, beta) nodes
    for norm layers by layer index; the training paths use it to inject
    trainable tape variables.
    """
    if norm_source not in NORM_SOURCES:
        raise ValueError(f"unknown norm source {norm_source!r}")
    xv = _val(x) if isinstance(x, (Tensor, Var)) else np.asarray(x, dtype=np.float64)
    if not isinstance(x, (Tensor, Var)):
        x = Tensor(xv)
    if xv.ndim != 3 or xv.shape[1] != model.in_channels:
        raise ShapeError(f"expected batch x {model.in_channels} x length input, got {xv.shape}")
    if xv.shape[0] < 1:
        raise ShapeError("empty batch")
    if norm_source != "batch" and isinstance(x, Var):
        raise ValueError("recorded forwards support batch statistics only")

    early_mean = early_sigma = None
    layer_stats: list[ChannelStats] = []
    layer_extents: list[int] = []
    norm_index = 0
    out = x
    for layer_index, layer in enumerate(model.layers):
        if layer.kind == "channel_mix":
            out = _mix(out, Tensor._wrap(layer.weight))
        elif layer.kind == "norm":
            value = _val(out)
            stats = batch_channel_stats(value)
            layer_stats.append(stats)
            layer_extents.append(value.shape[2])
            if norm_index == 0:
                early_mean = value.mean(axis=2)
                centered = value - early_mean[:, :, None]
                early_sigma = np.sqrt(np.mean(centered * centered, axis=2))
            if norm_params and layer_index in norm_params:
                gamma, beta = norm_params[layer_index]
            else:
                gamma, beta = Tensor._wrap(layer.gamma), Tensor._wrap(layer.beta)
            if norm_source == "batch":
                out = _norm_batch(out, gamma, beta, layer.epsilon)
            elif norm_source == "iobmn":
                if not layer.memory_norm.populated:
                    raise StateError("memory normalization state not populated; run an adaptation first")
                out = Tensor._wrap(normalize(layer.memory_norm, value, _val(gamma), _val(beta), layer.epsilon))
            elif norm_source == "ema":
                blended = layer.ema.update(stats)
                out = Tensor._wrap(_affine_normalize(value, blended.mean, blended.var,
                                                     _val(gamma), _val(beta), layer.epsilon))
            else:  # frozen source statistics
                out = Tensor._wrap(_affine_normalize(value, layer.running_mean, layer.running_var,
                                                     _val(gamma), _val(beta), layer.epsilon))
            norm_index += 1
        elif layer.kind == "relu":
            out = relu(out)
        elif layer.kind == "global_mean_pool":
            out = reduce_mean(out, (2,))
        else:  # classifier head
            out = add(matmul(out, Tensor._wrap(layer.weight)),
                      expand(Tensor._wrap(layer.bias), _val(out).shape[:1] + layer.bias.shape, (1,)))
    if early_mean is None:
        raise ValueError("model has no norm layer")
    return ForwardResult(out, early_mean, early_sigma, layer_stats, layer_extents)


def _affine_normalize(f, mean, var, gamma, beta, epsilon):
    scale = 1.0 / np.sqrt(var + epsilon)
    return gamma.reshape(1, -1, 1) * (f - mean.reshape(1, -1, 1)) * scale.reshape(1, -1, 1) + beta.reshape(1, -1, 1)


def entropy_loss(logits):
    """Mean over the batch of the prediction entropy (natural log)."""
    shape = _val(logits).shape if isinstance(logits, (Tensor, Var)) else np.shape(logits)
    if len(shape) != 2 or shape[0] < 1:
        raise ShapeError(f"expected batch x classes logits, got {shape}")
    p = softmax(logits)
    ls = log_softmax(logits)
    per_sample = neg(reduce_sum(mul(p, ls), (1,)))
    return reduce_mean(per_sample, (0,))


def cross_entropy_loss(logits, labels):
    """Mean negative log-likelihood of integer labels."""
    ls = log_softmax(logits)
    picked = take_per_row(ls, labels)
    return neg(reduce_mean(picked, (0,)))


def adapt_step(model: Model, memory_batch, lr: float) -> ForwardResult | None:
    """One entropy-minimization SGD step on every norm layer's scale/shift."""
    if memory_batch is None:
        return None
    batch = memory_batch if isinstance(memory_batch, Tensor) else Tensor(memory_batch)
    if batch.data.shape[0] == 0:
        return None
    tape = Tape()
    norm_params: dict[int, tuple] = {}
    slots: list[tuple[NormLayer, Var, Var]] = []
    for layer_index, layer in enumerate(model.layers):
        if layer.kind == "norm":
            g = tape.variable(Tensor._wrap(layer.gamma), trainable=True)
            b = tape.variable(Tensor._wrap(layer.beta), trainable=True)
            norm_params[layer_index] = (g, b)
            slots.append((layer, g, b))
    x = tape.variable(batch)
    result = forward(model, x, "batch", norm_params)
    loss = entropy_loss(result.logits)
    grads = backward(tape, loss)
    for layer, g, b in slots:
        layer.gamma = layer.gamma - lr * grads[g].data
        layer.beta = layer.beta - lr * grads[b].data
    return result


def pretrain_minibatch(model: Model, xb: np.ndarray, yb: np.ndarray, lr: float,
                       running_momentum: float) -> float:
    """One cross-entropy SGD step, as the package's pretraining takes it."""
    tape = Tape()
    norm_params: dict[int, tuple] = {}
    trained: list[tuple] = []  # (object, attribute, var)
    for layer_index, layer in enumerate(model.layers):
        if layer.kind == "channel_mix":
            w = tape.variable(Tensor._wrap(layer.weight), trainable=True)
            trained.append((layer, "weight", w))
        elif layer.kind == "norm":
            g = tape.variable(Tensor._wrap(layer.gamma), trainable=True)
            b = tape.variable(Tensor._wrap(layer.beta), trainable=True)
            norm_params[layer_index] = (g, b)
            trained.append((layer, "gamma", g))
            trained.append((layer, "beta", b))
        elif layer.kind == "classifier_head":
            w = tape.variable(Tensor._wrap(layer.weight), trainable=True)
            b = tape.variable(Tensor._wrap(layer.bias), trainable=True)
            trained.append((layer, "weight", w))
            trained.append((layer, "bias", b))
    x = tape.variable(Tensor._wrap(xb))
    result = forward(model, x, "batch", norm_params)
    loss = cross_entropy_loss(result.logits, yb)
    grads = backward(tape, loss)
    for obj, attr, var in trained:
        setattr(obj, attr, getattr(obj, attr) - lr * grads[var].data)
    m = running_momentum
    for layer, stats in zip(model.norm_layers, result.layer_stats):
        layer.running_mean = (1.0 - m) * layer.running_mean + m * stats.mean
        layer.running_var = (1.0 - m) * layer.running_var + m * stats.var
    return float(_val(loss))
