"""Tape-based reverse-mode differentiation: the reference for the kernels.

Just enough array machinery for a small normalization-layer classifier:
2-D matrix products, axis reductions, stable softmax / log-softmax, and
explicit (never implicit) broadcasting. Differentiation is recorded on an
explicit :class:`Tape`; gradients accumulate additively across fan-out and
are returned per trainable slot by :func:`backward`.

The second half re-expresses the model's forward pass, on the same
`(C, B*L)` channel rows as the package, its losses and its update steps on
the tape. The fused kernels in `stta.numerics` and `stta.model`
must reproduce these results bit for bit (see test_kernels.py); the
finite-difference tests check the tape itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from stta.model import NORM_SOURCES, RUNNING_MOMENTUM, ForwardResult, Model, NormLayer
from stta.normalization import ChannelStats, corrected_stats
from stta.numerics import ShapeError


class Tensor:
    """Immutable dense array of float64 values.

    All user-facing constructions reject NaN/Inf. The backing numpy array
    is marked read-only, so tensors are safe to share across threads.
    """

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for freshly computed float64 results.
        t = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        t._data = arr
        return t

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        return float(self._data)

    def tolist(self):
        return self._data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


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


def contiguous(a: ArrayLike):
    """A C-ordered copy of `a`, the same values."""
    return _apply(_tape_of(a), np.ascontiguousarray(_value(a)), (a,), lambda g: [g])


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
    the target shape spelled out (e.g. a per-channel vector expanded over
    the channel rows of a feature map).
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


def _rows(x):
    # batch x channels x length -> the channel rows (channels, batch * length) that every mix multiplies
    b, c, length = _val(x).shape
    return reshape(transpose(x, (1, 0, 2)), (c, b * length))


def _norm_with(x, mean, var, gamma, beta, epsilon):
    shape = _val(x).shape
    inv = rsqrt(add_scalar(var, epsilon))
    centered = sub(x, expand(mean, shape, (0,)))
    scaled = mul(centered, expand(inv, shape, (0,)))
    return add(mul(scaled, expand(gamma, shape, (0,))), expand(beta, shape, (0,)))


def channel_stats(value: np.ndarray) -> ChannelStats:
    """Per-channel mean and population variance of channel rows `(C, B*L)`: the values of `reduce_mean` and
    `reduce_var` over axis 1."""
    mean = value.mean(axis=1)
    centered = value - mean.reshape(-1, 1)
    return ChannelStats(mean, np.mean(centered * centered, axis=1))


def _norm_batch(x, gamma, beta, epsilon):
    return _norm_with(x, reduce_mean(x, (1,)), reduce_var(x, (1,)), gamma, beta, epsilon)


def forward(model: Model, x, norm_source: str = "batch",
            norm_params: dict[int, tuple] | None = None) -> ForwardResult:
    """Run the network on channel rows, collecting early per-sample and per-layer statistics.

    `x` may be a Tensor (pure evaluation) or a tape Var (differentiable;
    batch statistics only). `norm_params` substitutes (gamma, beta) nodes
    for norm layers by block index; the training paths use it to inject
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
    b, c, length = xv.shape
    out = _rows(x)
    for block, (weight, layer) in enumerate(zip(model.mix_weights, model.norm_layers)):
        out = matmul(Tensor._wrap(weight), out)
        value = _val(out)
        stats = channel_stats(value)
        layer_stats.append(stats)
        if block == 0:
            by_sample = value.reshape(c, b, length)
            sample_mean = by_sample.mean(axis=2)
            centered = by_sample - sample_mean[:, :, None]
            early_mean, early_sigma = sample_mean.T, np.sqrt(np.mean(centered * centered, axis=2)).T
        if norm_params and block in norm_params:
            gamma, beta = norm_params[block]
        else:
            gamma, beta = Tensor._wrap(layer.gamma), Tensor._wrap(layer.beta)
        if norm_source == "batch":
            out = _norm_batch(out, gamma, beta, layer.epsilon)
        else:
            if norm_source == "iobmn":
                source = corrected_stats(layer.memory_norm, stats)
                mean, var = source.mean, source.var
            elif norm_source == "ema":
                blended = layer.ema.update(stats)
                mean, var = blended.mean, blended.var
            else:  # frozen source statistics
                mean, var = layer.running_mean, layer.running_var
            out = _norm_with(out, Tensor._wrap(mean), Tensor._wrap(var), gamma, beta, layer.epsilon)
        out = relu(out)
    pooled = reduce_mean(reshape(out, (c, b, length)), (2,))  # global mean pool, (C, B)
    # The head multiplies a C-ordered (B, C) operand: a product rounds by the layout of its operands.
    out = contiguous(transpose(pooled, (1, 0)))
    out = add(matmul(out, Tensor._wrap(model.head_weight)),
              expand(Tensor._wrap(model.head_bias), _val(out).shape[:1] + model.head_bias.shape, (1,)))
    return ForwardResult(out, early_mean, early_sigma, layer_stats)


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


def _trainable_norms(tape: Tape, model: Model) -> tuple[dict[int, tuple], list[tuple[NormLayer, Var, Var]]]:
    """Trainable tape variables for every norm layer's (gamma, beta): `forward`'s `norm_params` and the slots
    `_descend` updates. Nothing else trains."""
    norm_params: dict[int, tuple] = {}
    slots: list[tuple[NormLayer, Var, Var]] = []
    for block, layer in enumerate(model.norm_layers):
        g = tape.variable(Tensor._wrap(layer.gamma), trainable=True)
        b = tape.variable(Tensor._wrap(layer.beta), trainable=True)
        norm_params[block] = (g, b)
        slots.append((layer, g, b))
    return norm_params, slots


def _descend(slots, grads: dict[Var, Tensor], lr: float) -> None:
    for layer, g, b in slots:
        layer.gamma = layer.gamma - lr * grads[g].data
        layer.beta = layer.beta - lr * grads[b].data


def adapt_step(model: Model, memory_batch, lr: float) -> ForwardResult | None:
    """One entropy-minimization SGD step on every norm layer's scale/shift."""
    if memory_batch is None:
        return None
    batch = memory_batch if isinstance(memory_batch, Tensor) else Tensor(memory_batch)
    if batch.data.shape[0] == 0:
        return None
    tape = Tape()
    norm_params, slots = _trainable_norms(tape, model)
    result = forward(model, tape.variable(batch), "batch", norm_params)
    _descend(slots, backward(tape, entropy_loss(result.logits)), lr)
    return result


def pretrain_minibatch(model: Model, xb: np.ndarray, yb: np.ndarray, lr: float) -> float:
    """One cross-entropy SGD step, as the package's pretraining takes it."""
    tape = Tape()
    norm_params, slots = _trainable_norms(tape, model)
    result = forward(model, tape.variable(Tensor._wrap(xb)), "batch", norm_params)
    loss = cross_entropy_loss(result.logits, yb)
    _descend(slots, backward(tape, loss), lr)
    m = RUNNING_MOMENTUM
    for layer, stats in zip(model.norm_layers, result.layer_stats):
        layer.running_mean = (1.0 - m) * layer.running_mean + m * stats.mean
        layer.running_var = (1.0 - m) * layer.running_var + m * stats.var
    return float(_val(loss))
