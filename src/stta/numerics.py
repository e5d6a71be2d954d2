"""Forward and backward kernels for the model's one fixed shape.

The model is n >= 1 blocks of (channel mix, normalization, relu), then a
global mean pool and a classifier head; normalization's forward is
`stta.normalization.normalize` and relu is `np.maximum(x, 0.0)` (+0.0 for
-0.0 too). Only the training steps record their forward (batch statistics,
`forward(..., record=True)`); a recorded forward keeps, per block, the mix
weight, what the normalization saved and the relu mask (`out > 0.0` of the
relu's output), and no early statistics; :func:`backward` walks that record
from the logits back to the first block and returns the norm layers'
scale/shift gradients, the only weights that train.

The kernels repeat, operation for operation, the tape-based reference
differentiator kept with the tests, and their results equal it bit for bit.
Floating-point reductions and matrix products depend on the memory layout
of their operands, so the kernels keep the reference's layouts wherever a
reduction or a product reads them: the channel-major result of the channel
mix, and the batch-major result of the normalization in a recorded forward.
Every unrecorded forward, serving with any source, keeps the channel-major
layout through normalization and relu; its pooled features are made
contiguous for the head. On that layout the batch statistics sum along
the mix's contiguous (C, B*L) rows, in the order the strided (B, C, L)
view does; the serving normalization works in place on its own result and
saves nothing, while the recorded forward's batch-major one keeps what the
backward reads. IoBMN's dead zone is sized once per adaptation (and after
`alpha` changes), not per served batch. Sums call `np.add.reduce`, the
ufunc loop behind `.sum` and `.mean`, without their Python wrappers.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-normalized exponentials over the last axis, max-subtracted."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# forward kernels


def channel_mix(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """batch x c_in x length -> batch x c_out x length, laid out channel-major."""
    b, c, length = x.shape
    mixed = weight @ x.transpose(1, 0, 2).reshape(c, b * length)
    return mixed.reshape(weight.shape[0], b, length).transpose(1, 0, 2)


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
    g = (g / length)[:, :, None]  # the pool's gradient, broadcast over length by the first mask
    grads = []
    for i in range(len(record) - 1, -1, -1):
        weight, (centered, scaled, gamma, inv, shifted_var), mask = record[i]
        g = g * mask
        grads.append((np.add.reduce(g * scaled, axis=(0, 2)), np.add.reduce(g, axis=(0, 2))))
        if i == 0:
            break
        count = g.shape[0] * g.shape[2]
        d_scaled = g * gamma.reshape(1, -1, 1)
        d_centered = d_scaled * inv.reshape(1, -1, 1)
        d_inv = np.add.reduce(d_scaled * centered, axis=(0, 2))
        d_var = d_inv * (-0.5) * inv / shifted_var
        d_mean = -np.add.reduce(d_centered, axis=(0, 2))
        g = d_centered + (d_var * (2.0 / count)).reshape(1, -1, 1) * centered
        g += (d_mean / count).reshape(1, -1, 1)
        b, c_out, length = g.shape
        cols = weight.T @ g.transpose(1, 0, 2).reshape(c_out, b * length)
        g = cols.reshape(weight.shape[1], b, length).transpose(1, 0, 2)
    grads.reverse()
    return grads
