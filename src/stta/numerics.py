"""Forward and backward kernels for the model's one fixed shape.

The model is n >= 1 blocks of (channel mix, normalization, relu), then a
global mean pool and a classifier head; normalization's forward is
`stta.normalization.normalize`. A recorded forward keeps, per block, the
mix weight, what the normalization saved and the relu mask;
:func:`backward` walks that record from the logits back to the first
block and returns the norm layers' scale/shift gradients, the only
weights that train.

The kernels repeat, operation for operation, the tape-based reference
differentiator kept with the tests, and their results equal it bit for bit.
Floating-point reductions and matrix products depend on the memory layout
of their operands, so the kernels keep the reference's layouts wherever a
reduction or a product reads them: the channel-major result of the channel
mix, and the batch-major result of the normalization.
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
# forward kernels


def channel_mix(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """batch x c_in x length -> batch x c_out x length, laid out channel-major."""
    b, c, length = x.shape
    mixed = weight @ x.transpose(1, 0, 2).reshape(c, b * length)
    return mixed.reshape(weight.shape[0], b, length).transpose(1, 0, 2)


def relu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rectified input and the mask of its positive entries."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask


# ---------------------------------------------------------------------------
# backward


def backward(record: list[tuple], dlogits: np.ndarray,
             head_weight: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scale/shift gradients of every norm layer, in block order.

    `record` holds one `(mix weight, norm saved, relu mask)` entry per
    block, in block order. Nothing before the first norm layer trains, so
    the walk stops at its scale/shift.
    """
    length = record[0][2].shape[2]
    g = dlogits @ head_weight.T
    g = np.repeat(g.reshape(*g.shape, 1) / length, length, axis=2)
    grads = []
    for i in range(len(record) - 1, -1, -1):
        weight, (centered, scaled, gamma, inv, shifted_var), mask = record[i]
        g = g * mask
        grads.append(((g * scaled).sum(axis=(0, 2)), g.sum(axis=(0, 2))))
        if i == 0:
            break
        count = g.shape[0] * g.shape[2]
        d_scaled = g * gamma.reshape(1, -1, 1)
        d_centered = d_scaled * inv.reshape(1, -1, 1)
        d_inv = (d_scaled * centered).sum(axis=(0, 2))
        d_var = d_inv * (-0.5) * inv / shifted_var
        d_mean = -d_centered.sum(axis=(0, 2))
        g = d_centered + (d_var * (2.0 / count)).reshape(1, -1, 1) * centered
        g += (d_mean / count).reshape(1, -1, 1)
        b, c_out, length = g.shape
        cols = weight.T @ g.transpose(1, 0, 2).reshape(c_out, b * length)
        g = cols.reshape(weight.shape[1], b, length).transpose(1, 0, 2)
    grads.reverse()
    return grads
