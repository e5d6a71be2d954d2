"""Forward and backward kernels for the model's fixed layer stack.

The model is a fixed stack of five layer kinds: channel mix, normalization,
relu, global mean pool and classifier head. Each kind has a plain-numpy
forward and backward here. A recorded forward keeps, per layer, what that
layer's backward needs; :func:`backward` walks the record in reverse and
returns the normalization layers' scale/shift gradients, the only weights
that train.

The kernels repeat, operation for operation, the tape-based reference
differentiator kept with the tests, and their results equal it bit for bit.
Floating-point reductions and matrix products depend on the memory layout
of their operands, so the kernels keep the reference's layouts wherever a
reduction or a product reads them: the channel-major result of the channel
mix, and the dense per-channel copies in the normalization layer.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


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


def softmax(a) -> Tensor:
    """Row-normalized exponentials over the last axis, max-subtracted."""
    av = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    if av.ndim < 1 or av.shape[-1] < 1:
        raise ShapeError(f"softmax: need at least one class, got shape {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return Tensor._wrap(e / e.sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# forward kernels; each returns its output and what its backward needs


def channel_mix(x: np.ndarray, weight: np.ndarray):
    """batch x c_in x length -> batch x c_out x length, laid out channel-major."""
    b, c, length = x.shape
    mixed = weight @ x.transpose(1, 0, 2).reshape(c, b * length)
    return mixed.reshape(weight.shape[0], b, length).transpose(1, 0, 2), (weight,)


def norm(x: np.ndarray, mean: np.ndarray, var: np.ndarray, gamma: np.ndarray,
         beta: np.ndarray, epsilon: float):
    """gamma * (x - mean) / sqrt(var + epsilon) + beta, per channel.

    `mean` and `var` are the batch's own statistics of `x`. The result is
    laid out batch-major whatever the layout of `x`: the backward's sums
    over batch and length read that layout.
    """
    shifted_var = var + epsilon
    inv = 1.0 / np.sqrt(shifted_var)
    centered = np.subtract(x, mean.reshape(1, -1, 1), order="C")
    scaled = centered * inv.reshape(1, -1, 1)
    out = scaled * gamma.reshape(1, -1, 1) + beta.reshape(1, -1, 1)
    return out, (centered, scaled, gamma, inv, shifted_var)


def relu(x: np.ndarray):
    mask = x > 0.0
    return np.where(mask, x, 0.0), (mask,)


def global_mean_pool(x: np.ndarray):
    """batch x channel x length -> batch x channel, the mean over length."""
    return x.mean(axis=(2,)), (x.shape[2],)


def classifier_head(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    return x @ weight + bias.reshape(1, -1), (weight,)


# ---------------------------------------------------------------------------
# backward


def backward(record: list[tuple], dlogits: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scale/shift gradients of every norm layer, in layer order.

    `record` holds one `(kind, saved)` entry per layer, in layer order, with
    what that layer's forward kernel saved. Nothing before the first norm
    layer trains, so the walk stops there.
    """
    grads = []
    first_norm = next(i for i, (kind, _) in enumerate(record) if kind == "norm")
    g = dlogits
    for i in range(len(record) - 1, first_norm - 1, -1):
        kind, saved = record[i]
        if kind == "classifier_head":
            (weight,) = saved
            g = g @ weight.T
        elif kind == "global_mean_pool":
            (length,) = saved
            g = np.repeat(g.reshape(*g.shape, 1) / length, length, axis=2)
        elif kind == "relu":
            (mask,) = saved
            g = g * mask
        elif kind == "channel_mix":
            (weight,) = saved
            b, c_out, length = g.shape
            cols = weight.T @ g.transpose(1, 0, 2).reshape(c_out, b * length)
            g = cols.reshape(weight.shape[1], b, length).transpose(1, 0, 2)
        else:
            centered, scaled, gamma, inv, shifted_var = saved
            d_beta = g.sum(axis=(0, 2))
            d_gamma = (g * scaled).sum(axis=(0, 2))
            grads.append((d_gamma, d_beta))
            if i == first_norm:
                break
            count = g.shape[0] * g.shape[2]
            d_scaled = g * gamma.reshape(1, -1, 1)
            d_centered = d_scaled * inv.reshape(1, -1, 1)
            d_inv = (d_scaled * centered).sum(axis=(0, 2))
            d_var = d_inv * (-0.5) * inv / shifted_var
            d_mean = -d_centered.sum(axis=(0, 2))
            g = d_centered + (d_var * (2.0 / count)).reshape(1, -1, 1) * centered
            g += (d_mean / count).reshape(1, -1, 1)
    grads.reverse()
    return grads
