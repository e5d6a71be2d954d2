"""The backward kernel for the model's one fixed shape, softmax, and the checks of settings.

The model is n >= 1 blocks of (channel mix, normalization, relu), then a
global mean pool and a classifier head. Its forward, `stta.model.forward`,
keeps activations as channel rows: one C-contiguous `(C, B*L)` array,
mixed by `weight @ rows` and normalized by `stta.normalization.normalize`
with `(C, 1)` columns; relu is `np.maximum(x, 0.0)` (+0.0 for -0.0 too).
Only the training steps record their forward (batch statistics,
`forward(..., record=True)`); a recorded forward keeps, per block, the mix
weight, what the normalization saved and the relu mask (`out > 0.0` of the
relu's output), and no early statistics; :func:`backward` walks that record
from the logits back to the first block and returns the norm layers'
scale/shift gradients, the only weights that train.

The kernels repeat, operation for operation, the tape-based reference
differentiator kept with the tests, and their results equal it bit for bit.
Floating-point reductions and matrix products depend on the memory layout
of their operands, so the forward, the backward and the reference keep one
layout throughout: C-contiguous `(C, B*L)` channel rows, reduced along each
row and mixed by `weight @ rows` (`weight.T @ g` backward). A serving
forward normalizes its rows in place and saves nothing; a recorded one
takes the same operations into new arrays, so the two give the same bits.
Sums call `np.add.reduce`, the ufunc loop behind `.sum` and `.mean`,
without their Python wrappers. The module also holds the shared checks of
numbers, booleans, checkpoint objects and arrays, by which every setting
and checkpoint field is checked; it imports nothing from the package.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


# ---------------------------------------------------------------------------
# checks of numbers, booleans and checkpoint fields


def is_real(value) -> bool:
    """A real number that is not a boolean (JSON and YAML booleans are ints to Python)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# The `checked_number` rules: (test, how a message states it). Each real-valued
# setting has one, and every type that holds the setting checks it by that rule.
# "Finite" is "a float can hold it": an integer beyond the largest float is not.
_MAX = sys.float_info.max
UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
HALF_OPEN_UNIT = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")
FINITE_NONNEGATIVE = (lambda v: 0.0 <= v <= _MAX, ">= 0 and finite")
FINITE_POSITIVE = (lambda v: 0.0 < v <= _MAX, "> 0 and finite")
FINITE = (lambda v: -_MAX <= v <= _MAX, "that is finite")


def checked_number(value, where: str, rule: tuple) -> int | float:
    """`value` as a Python int or float if it is a real number (a numpy scalar read as the one it holds) that passes
    `rule`; ValueError `<where> must be a number <rule>, got ...`. Every rule bounds it, so a float can hold it."""
    ok, text = rule
    number = value.item() if isinstance(value, np.generic) else value
    if not (is_real(number) and ok(number)):
        raise ValueError(f"{where} must be a number {text}, got {value!r}")
    return int(number) if isinstance(number, numbers.Integral) else float(number)


def checked_bool(value, where: str) -> bool:
    """`value` if it is a boolean; ValueError `<where> must be true or false, got ...`."""
    if not isinstance(value, bool):
        raise ValueError(f"{where} must be true or false, got {value!r}")
    return value


def checked_int(value, where: str, minimum: int = 0, below: int | None = None) -> int:
    """`value` if it is an integer >= `minimum` (and < `below`, if given); ValueError naming `where`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum
            or (below is not None and value >= below)):
        bounds = f">= {minimum}" + ("" if below is None else f" and < {below}")
        raise ValueError(f"{where} must be an integer {bounds}, got {value!r}")
    return int(value)


def checked_fields(entry, keys: tuple, where: str, sep: str = ".") -> tuple:
    """The values of `keys`, in order, of a JSON object with exactly those keys; ValueError naming the path if not."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in (*keys, *entry):  # a missing key is named before an unknown one
        if key not in entry or key not in keys:
            raise ValueError(f"{where}{sep}{key} " + ("is missing" if key not in entry else "is an unknown key"))
    return tuple(entry[key] for key in keys)


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-normalized exponentials over the last axis, max-subtracted."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# backward


def backward(record: list[tuple], dlogits: np.ndarray,
             head_weight: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scale/shift gradients of every norm layer, in block order.

    `record` holds one `(mix weight, norm saved, relu mask)` entry per
    block, in block order, its arrays `(C, B*L)` rows; the gradient stays
    rows from the pool back. Nothing before the first norm layer trains,
    so the walk stops at its scale/shift.
    """
    count = record[0][2].shape[1]  # B*L, the columns of every block's rows
    length = count // dlogits.shape[0]
    g = (dlogits @ head_weight.T / length).T.repeat(length, axis=1)  # the pool's gradient, as rows
    grads = []
    for i in range(len(record) - 1, -1, -1):
        weight, (centered, scaled, gamma, inv, shifted_var), mask = record[i]
        g = g * mask
        grads.append((np.add.reduce(g * scaled, axis=1), np.add.reduce(g, axis=1)))
        if i == 0:
            break
        d_scaled = g * gamma.reshape(-1, 1)
        d_centered = d_scaled * inv.reshape(-1, 1)
        d_inv = np.add.reduce(d_scaled * centered, axis=1)
        d_var = d_inv * (-0.5) * inv / shifted_var
        d_mean = -np.add.reduce(d_centered, axis=1)
        g = d_centered + (d_var * (2.0 / count)).reshape(-1, 1) * centered
        g += (d_mean / count).reshape(-1, 1)
        g = weight.T @ g
    grads.reverse()
    return grads
