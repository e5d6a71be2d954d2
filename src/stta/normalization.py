"""Inference-time normalization from adaptation-memory statistics.

Between sparse model updates, normalization layers can keep using the
per-channel statistics observed on the last adaptation batch. Those
statistics are treated as estimates with known sampling variance, and are
corrected toward the live batch statistics only where the live values fall
outside a dead zone sized by the estimates' standard error (soft
shrinkage). An exponential-moving-average provider is included as the
ablation alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, Tensor


class StateError(RuntimeError):
    """Normalization state used before it was populated."""


@dataclass
class ChannelStats:
    """Per-channel mean and population variance of a feature map."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mean.shape != self.var.shape or self.mean.ndim != 1:
            raise ShapeError(f"channel stats: mean {self.mean.shape} vs var {self.var.shape}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.var).all()):
            raise ValueError("channel stats must be finite")
        if (self.var < 0.0).any():
            raise ValueError("variance must be non-negative")

    def copy(self) -> "ChannelStats":
        return ChannelStats(self.mean.copy(), self.var.copy())


def soft_shrinkage(x, threshold):
    """Dead-zone operator: sign(x) * max(|x| - threshold, 0), elementwise.

    `threshold` may be a scalar or a per-element array; it must be
    non-negative everywhere.
    """
    xv = np.asarray(x, dtype=np.float64)
    tv = np.asarray(threshold, dtype=np.float64)
    if np.any(tv < 0.0):
        raise ValueError("shrinkage threshold must be non-negative")
    out = np.sign(xv) * np.maximum(np.abs(xv) - tv, 0.0)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass
class MemoryNormState:
    """Per-layer statistics frozen at the last adaptation event.

    Holds the memory batch's per-channel mean/variance together with the
    feature-map extent and memory count they were measured over, which size
    the sampling-distribution dead zone. Unpopulated until the first
    adaptation.
    """

    alpha: float = 4.0
    memory_stats: ChannelStats | None = None
    spatial_extent: int = 0
    sample_count: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")

    @property
    def populated(self) -> bool:
        return self.memory_stats is not None

    def populate(self, stats: ChannelStats, spatial_extent: int, sample_count: int) -> None:
        if spatial_extent < 1 or sample_count < 1:
            raise ValueError("spatial extent and sample count must be >= 1")
        self.memory_stats = stats.copy()
        self.spatial_extent = int(spatial_extent)
        self.sample_count = int(sample_count)


def sampling_variances(state: MemoryNormState) -> tuple[np.ndarray, np.ndarray]:
    """Variances of the memory mean and memory variance as sample estimates.

    With n = extent * count values behind the estimates:
    var(mean) = v / n and var(variance) = 2 v^2 / (n - 1), per channel.
    """
    if not state.populated:
        raise StateError("memory normalization state is not populated")
    n = state.spatial_extent * state.sample_count
    if n < 2:
        raise ValueError(f"degenerate sample size {n}: need extent*count >= 2")
    v = state.memory_stats.var
    return v / n, 2.0 * v * v / (n - 1)


def corrected_stats(state: MemoryNormState, live: ChannelStats) -> ChannelStats:
    """Memory stats shifted toward the live batch stats outside the dead zone.

    The corrected variance is clamped at zero: shrinking toward a much
    smaller live variance can otherwise undershoot when the memory variance
    is small.
    """
    if not state.populated:
        raise StateError("memory normalization state is not populated")
    mem = state.memory_stats
    if live.mean.shape != mem.mean.shape:
        raise ShapeError(f"live stats {live.mean.shape} vs memory stats {mem.mean.shape}")
    s2_mean, s2_var = sampling_variances(state)
    mean = mem.mean + soft_shrinkage(live.mean - mem.mean, state.alpha * np.sqrt(s2_mean))
    var = mem.var + soft_shrinkage(live.var - mem.var, state.alpha * np.sqrt(s2_var))
    return ChannelStats(mean, np.maximum(var, 0.0))


def normalize(
    state: MemoryNormState,
    features,
    gamma: np.ndarray,
    beta: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Normalize a batch-by-channel-by-length feature map with corrected stats.

    Live per-channel statistics are measured on `features` itself; the
    returned array is gamma * (f - mean) / sqrt(var + epsilon) + beta with
    the corrected per-channel (mean, var).
    """
    f = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    if f.ndim != 3:
        raise ShapeError(f"expected batch x channel x length features, got {f.shape}")
    live = batch_channel_stats(f)
    stats = corrected_stats(state, live)
    mean = stats.mean.reshape(1, -1, 1)
    scale = 1.0 / np.sqrt(stats.var + epsilon).reshape(1, -1, 1)
    return np.asarray(gamma).reshape(1, -1, 1) * (f - mean) * scale + np.asarray(beta).reshape(1, -1, 1)


def batch_channel_stats(f: np.ndarray) -> ChannelStats:
    """Per-channel mean and population variance over batch and length axes."""
    if f.ndim != 3:
        raise ShapeError(f"expected batch x channel x length features, got {f.shape}")
    mean = f.mean(axis=(0, 2))
    centered = f - mean.reshape(1, -1, 1)
    var = np.mean(centered * centered, axis=(0, 2))
    return ChannelStats(mean, var)


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
        if not (0.0 < self.momentum <= 1.0):
            raise ValueError("momentum must be in (0, 1]")

    @property
    def populated(self) -> bool:
        return self.stats is not None

    def update(self, live: ChannelStats) -> ChannelStats:
        if self.stats is None:
            self.stats = live.copy()
        else:
            m = self.momentum
            self.stats = ChannelStats(
                (1.0 - m) * self.stats.mean + m * live.mean,
                (1.0 - m) * self.stats.var + m * live.var,
            )
        return self.stats
