"""Normalization and the statistics it can be fed.

:func:`normalize` is the one per-channel affine normalization, of channel
rows centred on one of four (mean, var) sources. Between sparse model updates,
normalization layers can keep using the per-channel statistics observed on
the last adaptation batch. Those statistics are treated as estimates with
known sampling variance, and are corrected toward the live batch
statistics only where the live values fall outside a dead zone sized by
the estimates' standard error (soft shrinkage, :func:`corrected_stats`).
That dead zone is sized once per adaptation, on the first batch served
with its statistics, not per served batch. An exponential-moving-average
provider is included as the ablation alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numerics import FINITE_NONNEGATIVE, HALF_OPEN_UNIT, checked_int, checked_number


class StateError(RuntimeError):
    """Normalization state used before it was populated."""


class ChannelStats(NamedTuple):
    """Per-channel mean and population variance of a feature map (unchecked arrays)."""

    mean: np.ndarray
    var: np.ndarray


def _shrunk(x: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Dead-zone operator sign(x) * max(|x| - high, 0) for the zone [low, high] = [-t, t], t >= 0, as x minus
    x clamped to the zone: x - x = +0.0 inside it, but -0.0 for x = -0.0 at t = 0."""
    return x - np.minimum(np.maximum(x, low), high)


@dataclass(frozen=True)
class MemoryNormState:
    """Per-layer statistics of the last adaptation event, one immutable value; unpopulated without statistics.

    The memory batch's per-channel mean/variance, with the feature-map
    extent and memory count they were measured over: integers >= 1 whose
    product, at least 2, sizes the sampling-distribution dead zone. Each
    adaptation builds a new value, and a new `alpha` takes
    `dataclasses.replace`; both pass the checks of construction.
    """

    alpha: float = 4.0
    memory_stats: ChannelStats | None = None
    spatial_extent: int = 0
    sample_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", checked_number(self.alpha, "alpha", FINITE_NONNEGATIVE))
        if self.memory_stats is not None:
            extent, count = (checked_int(getattr(self, key), key, 1) for key in ("spatial_extent", "sample_count"))
            object.__setattr__(self, "spatial_extent", extent)
            object.__setattr__(self, "sample_count", count)
            if not estimable(extent, count):
                raise ValueError(f"spatial_extent x sample_count must be >= 2, got {extent} x {count}")

    @property
    def populated(self) -> bool:
        return self.memory_stats is not None

    @cached_property
    def _dead_zone(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """`(-t, t)` for the mean and for the variance, t = `alpha` x standard error; StateError if unpopulated.

        A t that overflows is +inf: its channel serves the memory statistic, the large-`alpha` limit.
        """
        with np.errstate(over="ignore"):
            return tuple((-t, t) for t in (self.alpha * np.sqrt(s2) for s2 in sampling_variances(self)))


def estimable(spatial_extent: int, sample_count: int) -> bool:
    """Whether `spatial_extent` x `sample_count` values give `sampling_variances`, which divide by n - 1."""
    return spatial_extent >= 1 and sample_count >= 1 and spatial_extent * sample_count >= 2


def sampling_variances(state: MemoryNormState) -> tuple[np.ndarray, np.ndarray]:
    """Variances of the memory mean and memory variance as sample estimates.

    With n = extent * count >= 2 values behind the estimates (see `MemoryNormState`):
    var(mean) = v / n and var(variance) = 2 v^2 / (n - 1), per channel.
    """
    if not state.populated:
        raise StateError("memory normalization state is not populated")
    n = state.spatial_extent * state.sample_count
    v = state.memory_stats.var
    return v / n, 2.0 * v * v / (n - 1)


def corrected_stats(state: MemoryNormState, live: ChannelStats) -> ChannelStats:
    """Memory stats shifted toward the live batch stats outside the dead zone.

    The corrected variance is clamped at zero: shrinking toward a much
    smaller live variance can otherwise undershoot when the memory variance
    is small.
    """
    mean_zone, var_zone = state._dead_zone
    mem = state.memory_stats
    mean = mem.mean + _shrunk(live.mean - mem.mean, *mean_zone)
    var = mem.var + _shrunk(live.var - mem.var, *var_zone)
    return ChannelStats(mean, np.maximum(var, 0.0, out=var))


def normalize(centered: np.ndarray, var: np.ndarray, gamma: np.ndarray, beta: np.ndarray, epsilon: float,
              record: bool = False):
    """gamma * centered / sqrt(var + epsilon) + beta, per channel, for `centered` = x - mean.

    The one normalization routine, whatever the source of (mean, var).
    `centered` holds channel rows, `(C, N)`; the per-channel values act as
    `(C, 1)` columns. A serving call works in place on `centered` and
    returns it with None for the intermediates, which nothing reads. A
    recorded call (`record`) leaves `centered` alone and also returns what
    `numerics.backward` needs when (mean, var) are the batch's own
    statistics.
    """
    shifted_var = var + epsilon
    inv = 1.0 / np.sqrt(shifted_var)
    scaled = np.multiply(centered, inv.reshape(-1, 1), out=None if record else centered)
    out = np.multiply(scaled, gamma.reshape(-1, 1), out=None if record else scaled)
    out += beta.reshape(-1, 1)
    return out, (centered, scaled, gamma, inv, shifted_var) if record else None


def batch_channel_stats(rows: np.ndarray) -> tuple[ChannelStats, np.ndarray]:
    """Per-channel mean and population variance of channel rows `(C, N)`, each a channel's values over batch
    and length, and the centred rows `rows - mean` that the variance sums (a new array)."""
    n = rows.shape[1]
    mean = np.add.reduce(rows, axis=1) / n  # what `rows.mean` computes, without its Python wrapper
    centered = rows - mean.reshape(-1, 1)
    return ChannelStats(mean, np.add.reduce(centered * centered, axis=1) / n), centered


@dataclass
class EmaNormState:
    """Exponential moving average of test-batch statistics.

    The ablation alternative to memory-statistics normalization: `momentum`
    is the weight on the current batch, matching the domain-centroid
    convention elsewhere in this package. The first observed batch
    initializes the average.
    """

    momentum: float = 0.9
    stats: ChannelStats | None = None

    def __post_init__(self) -> None:
        self.momentum = checked_number(self.momentum, "momentum", HALF_OPEN_UNIT)

    def update(self, live: ChannelStats) -> ChannelStats:
        if self.stats is None:
            self.stats = live
        else:
            m = self.momentum
            self.stats = ChannelStats(
                (1.0 - m) * self.stats.mean + m * live.mean,
                (1.0 - m) * self.stats.var + m * live.var,
            )
        return self.stats
