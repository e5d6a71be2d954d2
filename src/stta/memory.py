"""Class- and domain-representative sample memory for sparse adaptation.

A capacity-bounded buffer of streaming samples used as the adaptation
batch. Candidates carry a pseudo-label, its confidence, and per-channel
early-feature statistics; the buffer keeps high-confidence samples, keeps
classes balanced, and inside the over-represented class evicts the sample
farthest from a momentum-tracked domain centroid (closed-form Gaussian
transport distance on per-channel mean/std). Alternative selection modes
(naive FIFO, random, lowest-entropy, class-balance-only) are provided for
ablation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normalization import ChannelStats
from .numerics import ShapeError, Tensor

SELECTION_MODES = ("naive", "random", "low_entropy", "crm", "cndrm")


def confidence(probabilities) -> float:
    """Largest class probability of a single prediction vector."""
    p = probabilities.data if isinstance(probabilities, Tensor) else np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ShapeError(f"expected a probability vector, got shape {p.shape}")
    return float(p.max())


@dataclass
class SampleStats:
    """Per-channel mean and standard deviation of one sample's early features."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape or self.mu.ndim != 1:
            raise ShapeError(f"sample stats: mu {self.mu.shape} vs sigma {self.sigma.shape}")
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma must be non-negative")


def wasserstein(a, b) -> float:
    """Distance between two per-channel (mu, sigma) summaries.

    Treats each channel as an independent Gaussian; the squared distances
    (mu gap squared plus sigma gap squared) add across channels under a
    single square root. Accepts any two objects with `mu` and `sigma`
    arrays (sample stats or centroids).
    """
    if a.mu.shape != b.mu.shape:
        raise ShapeError(f"channel counts differ: {a.mu.shape} vs {b.mu.shape}")
    dm = a.mu - b.mu
    ds = a.sigma - b.sigma
    return float(np.sqrt(np.sum(dm * dm) + np.sum(ds * ds)))


@dataclass(frozen=True)
class DomainCentroid:
    """Momentum-tracked per-channel (mean, std) of early-layer batch statistics.

    `beta` is the weight on the current batch; blending happens in variance
    space and the stored sigma is the square root of the blended variance.
    """

    mu: np.ndarray
    sigma: np.ndarray
    beta: float = 0.9
    initialized: bool = False

    @classmethod
    def empty(cls, channels: int, beta: float = 0.9) -> "DomainCentroid":
        if not (0.0 < beta <= 1.0):
            raise ValueError("beta must be in (0, 1]")
        return cls(np.zeros(channels), np.zeros(channels), beta, False)

    def updated(self, batch_stats: ChannelStats) -> tuple["DomainCentroid", float]:
        """Blend in a batch's (mean, variance); returns (new centroid, shift).

        The first update adopts the batch statistics outright and reports an
        infinite shift so the caller rescores everything it has stored.
        """
        mean = np.asarray(batch_stats.mean, dtype=np.float64)
        var = np.asarray(batch_stats.var, dtype=np.float64)
        if not self.initialized:
            new = DomainCentroid(mean.copy(), np.sqrt(var), self.beta, True)
            return new, math.inf
        b = self.beta
        new_mu = (1.0 - b) * self.mu + b * mean
        new_var = (1.0 - b) * (self.sigma * self.sigma) + b * var
        new = DomainCentroid(new_mu, np.sqrt(new_var), b, True)
        return new, wasserstein(self, new)


@dataclass
class MemorySample:
    """One stored stream sample plus everything the eviction policy needs."""

    input: Tensor
    pseudo_label: int
    confidence: float
    stats: SampleStats
    wdist: float
    arrival_index: int
    entropy: float | None = None


@dataclass(frozen=True)
class InsertOutcome:
    kind: str  # rejected_low_conf | inserted | inserted_with_eviction
    evicted: MemorySample | None = None


class SampleMemory:
    """Capacity-bounded sample buffer with pluggable selection policy.

    Selection modes:
      naive       every sample eligible, evict earliest arrival (FIFO)
      random      every sample eligible, evict uniformly at random
      low_entropy every sample eligible, evict highest stored entropy
      crm         confidence filter + class balance, evict earliest arrival
                  within the over-represented class
      cndrm       confidence filter + class balance, evict the centroid-
                  farthest sample within the over-represented class

    Single-writer: one engine instance owns the memory for its stream.
    """

    def __init__(
        self,
        capacity: int,
        channels: int,
        tau_conf: float = 0.5,
        tau_delta: float = 0.1,
        beta: float = 0.9,
        selection_mode: str = "cndrm",
        rng: np.random.Generator | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {selection_mode!r}")
        if tau_delta < 0.0:
            raise ValueError("tau_delta must be non-negative")
        self.capacity = int(capacity)
        self.tau_conf = float(tau_conf)
        self.tau_delta = float(tau_delta)
        self.selection_mode = selection_mode
        self.samples: list[MemorySample] = []
        self.centroid = DomainCentroid.empty(channels, beta)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def __len__(self) -> int:
        return len(self.samples)

    # -- scoring ------------------------------------------------------------

    def score(self, stats: SampleStats) -> float:
        """Distance of a sample's stats to the current centroid.

        Infinite until the centroid has seen its first batch; the first
        rescore after initialization replaces these placeholders.
        """
        if not self.centroid.initialized:
            return math.inf
        return wasserstein(stats, self.centroid)

    def update_centroid(self, batch_stats: ChannelStats) -> float:
        """Fold one batch's early-layer statistics into the centroid."""
        self.centroid, shift = self.centroid.updated(batch_stats)
        return shift

    def maybe_rescore(self, shift: float) -> int:
        """Recompute stored distances when the centroid moved significantly.

        Returns the number of rescored samples (0 when the shift stayed
        within the threshold).
        """
        if shift > self.tau_delta:
            for s in self.samples:
                s.wdist = wasserstein(s.stats, self.centroid)
            return len(self.samples)
        return 0

    # -- insertion ----------------------------------------------------------

    def insert(self, candidate: MemorySample) -> InsertOutcome:
        """Offer a scored candidate; applies the mode's eligibility and eviction."""
        if self.selection_mode in ("crm", "cndrm") and candidate.confidence <= self.tau_conf:
            return InsertOutcome("rejected_low_conf")
        if self.selection_mode == "low_entropy" and candidate.entropy is None:
            raise ValueError("low_entropy mode requires candidates with stored entropy")
        self.samples.append(candidate)
        if len(self.samples) <= self.capacity:
            return InsertOutcome("inserted")
        victim = self.samples.pop(self._victim_index(candidate))
        return InsertOutcome("inserted_with_eviction", victim)

    def _victim_index(self, candidate: MemorySample) -> int:
        mode = self.selection_mode
        indices = range(len(self.samples))
        if mode == "naive":
            return min(indices, key=lambda i: self.samples[i].arrival_index)
        if mode == "random":
            return int(self._rng.integers(len(self.samples)))
        if mode == "low_entropy":
            # Highest stored entropy goes; ties evict the stalest.
            return max(indices, key=lambda i: (self.samples[i].entropy, -self.samples[i].arrival_index))
        target = self._largest_class()
        if candidate.pseudo_label == target:
            pool = [i for i in indices if self.samples[i].pseudo_label == candidate.pseudo_label]
        else:
            pool = [i for i in indices if self.samples[i].pseudo_label == target]
        if mode == "crm":
            return min(pool, key=lambda i: self.samples[i].arrival_index)
        return max(pool, key=lambda i: (self.samples[i].wdist, -self.samples[i].arrival_index))

    def _largest_class(self) -> int:
        counts: dict[int, int] = {}
        for s in self.samples:
            counts[s.pseudo_label] = counts.get(s.pseudo_label, 0) + 1
        if self.selection_mode == "cndrm":
            # Tie between equally-large classes: the one holding the farthest
            # sample, then the lowest class id.
            def key(label: int):
                far = max(s.wdist for s in self.samples if s.pseudo_label == label)
                return (counts[label], far, -label)
        else:
            # crm has no distances; break ties toward the class with the
            # stalest member.
            def key(label: int):
                oldest = min(s.arrival_index for s in self.samples if s.pseudo_label == label)
                return (counts[label], -oldest, -label)
        return max(counts, key=key)

    # -- consumption --------------------------------------------------------

    def batch(self) -> Tensor | None:
        """Stored inputs stacked in arrival order; None when empty."""
        if not self.samples:
            return None
        return Tensor._wrap(np.stack([s.input.data for s in self.samples]))

    def dump(self) -> str:
        """One line per sample: arrival_index, pseudo-label, confidence, distance."""
        return "\n".join(
            f"{s.arrival_index}\t{s.pseudo_label}\t{s.confidence!r}\t{s.wdist!r}"
            for s in self.samples
        )
