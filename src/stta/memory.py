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
from typing import NamedTuple

import numpy as np

from .normalization import ChannelStats
from .numerics import (FINITE, FINITE_NONNEGATIVE, HALF_OPEN_UNIT, UNIT_INTERVAL, ShapeError, checked_array,
                       checked_bool, checked_fields, checked_int, checked_number)

SELECTION_MODES = ("naive", "random", "low_entropy", "crm", "cndrm")
# One checkpoint entry per stored sample, in this key order (see `SampleMemory.state_dict`).
SAMPLE_FIELDS = ("input", "pseudo_label", "confidence", "mu", "sigma", "wdist", "arrival_index", "entropy")


def wasserstein(mu: np.ndarray, sigma: np.ndarray, ref_mu: np.ndarray, ref_sigma: np.ndarray) -> np.ndarray:
    """Distance of per-channel (mu, sigma) rows to one reference (mu, sigma).

    Treats each channel as an independent Gaussian; the squared distances
    (mu gap squared plus sigma gap squared) add across channels under a
    single square root. Each row sums over channels on its own, so a
    `[B, C]` call equals B one-row calls bit for bit.
    """
    dm = mu - ref_mu
    ds = sigma - ref_sigma
    return np.sqrt(np.add.reduce(dm * dm, axis=-1) + np.add.reduce(ds * ds, axis=-1))


class InsertOutcome(NamedTuple):
    kind: str  # rejected_low_conf | inserted | inserted_with_eviction
    evicted: int | None = None  # arrival index of the sample that left


_REJECTED = InsertOutcome("rejected_low_conf")
_INSERTED = InsertOutcome("inserted")
_CANDIDATE = -1  # victim marker: the candidate itself is evicted


class SampleMemory:
    """Capacity-bounded sample buffer with pluggable selection policy.

    Selection modes:
      naive       every sample eligible, evict earliest arrival (FIFO)
      random      every sample eligible, evict uniformly at random
      low_entropy every sample eligible, evict highest stored entropy
      cndrm       confidence filter, then the victim rule below
      crm         cndrm with staleness in place of centroid distance

    The victim of a full cndrm or crm memory: count the candidate in its own
    class, then keep only the largest classes. Among their samples, evict the
    one with the highest key: the distance to the centroid under cndrm,
    -arrival under crm. Ties go to the lowest class id, then to the stalest
    sample; the candidate is the latest arrival.

    Samples live in fixed-size arrays, one row per slot: `inputs`,
    `labels`, `confidences`, `mu`, `sigma`, `wdist`, `arrivals` and
    `entropies`. The first `len(self)` slots are filled; a candidate that
    evicts a stored sample overwrites its slot, so slot order is not
    arrival order and `order()` gives the slots sorted by arrival.
    Candidates must arrive with increasing arrival indices, and
    `next_arrival` is the lowest one the memory takes next.
    `class_counts` maps each stored pseudo-label to its number of samples.
    Callers read these; only `insert` and `maybe_rescore` write them.

    The domain centroid, `centroid_mu` and `centroid_sigma`, is a momentum
    average (weight `beta` on the current batch) of early-layer batch
    statistics; it is zeros until `update_centroid` has seen a batch.

    `offer` runs one batch's upkeep; `state_dict` writes the memory's section
    of the engine checkpoint, and `from_state_dict` makes a memory from one.

    Single-writer: one engine instance owns the memory for its stream.
    """

    tau_delta = 0.1  # the centroid shift beyond which `maybe_rescore` recomputes distances; a constant

    def __init__(
        self,
        capacity: int,
        channels: int,
        tau_conf: float = 0.5,
        beta: float = 0.9,
        selection_mode: str = "cndrm",
        rng: np.random.Generator | None = None,
    ) -> None:
        # EngineConfig's rules and messages, before any state is built.
        if selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {selection_mode!r} (have {', '.join(SELECTION_MODES)})")
        self.capacity = checked_int(capacity, "capacity", 1)
        channels = checked_int(channels, "channels", 1)
        self.tau_conf = float(checked_number(tau_conf, "tau_conf", UNIT_INTERVAL))
        self.beta = float(checked_number(beta, "beta", HALF_OPEN_UNIT))
        self.selection_mode = selection_mode
        cap = self.capacity
        self.inputs: np.ndarray | None = None  # [cap, *input shape], sized by the first insert
        # The row shapes `insert` checks each candidate against: inputs.shape[1:] once sized, mu.shape[1:].
        self._input_shape: tuple | None = None
        self._stats_shape = (channels,)
        self.labels = np.zeros(cap, dtype=np.int64)
        self.confidences = np.zeros(cap)
        self.mu = np.zeros((cap, channels))
        self.sigma = np.zeros((cap, channels))
        self.wdist = np.zeros(cap)
        self.arrivals = np.zeros(cap, dtype=np.int64)
        self.entropies = np.zeros(cap)
        self.class_counts: dict[int, int] = {}
        self._farthest: dict[int, tuple[float, int]] = {}  # see _farthest_of
        self._size = 0
        self._oldest = 0  # naive: the slot of the earliest arrival, since slots fill and are evicted in arrival order
        self.next_arrival = 0
        self.centroid_mu = np.zeros(channels)
        self.centroid_sigma = np.zeros(channels)
        self.centroid_initialized = False
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def __len__(self) -> int:
        return self._size

    def order(self) -> np.ndarray:
        """Filled slots sorted by arrival."""
        return np.argsort(self.arrivals[:self._size])

    # -- scoring ------------------------------------------------------------

    def score(self, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """Distances of per-channel (mu, sigma) rows to the current centroid.

        Takes `[B, C]` statistics (or one `[C]` row) and returns `[B]`
        distances (or one). Infinite until the centroid has seen its first
        batch; the first rescore after initialization replaces these
        placeholders.
        """
        if mu.shape != sigma.shape or mu.shape[-1:] != self.centroid_mu.shape:
            raise ShapeError(f"sample stats: mu {mu.shape} vs sigma {sigma.shape}, "
                             f"{self.centroid_mu.size} channels")
        if not self.centroid_initialized:
            return np.full(mu.shape[:-1], math.inf)
        return wasserstein(mu, sigma, self.centroid_mu, self.centroid_sigma)

    def update_centroid(self, batch_stats: ChannelStats) -> float:
        """Fold one batch's early-layer (mean, variance) into the centroid; returns its shift.

        The blend is in variance space. The first update adopts the batch
        statistics and reports an infinite shift, so everything is rescored.
        """
        mean, var = batch_stats
        if not self.centroid_initialized:
            self.centroid_mu, self.centroid_sigma = mean, np.sqrt(var)
            self.centroid_initialized = True
            return math.inf
        b = self.beta
        mu = (1.0 - b) * self.centroid_mu + b * mean
        sigma = np.sqrt((1.0 - b) * (self.centroid_sigma * self.centroid_sigma) + b * var)
        shift = float(wasserstein(self.centroid_mu, self.centroid_sigma, mu, sigma))
        self.centroid_mu, self.centroid_sigma = mu, sigma
        return shift

    def maybe_rescore(self, shift: float) -> int:
        """Recompute stored distances when the centroid moved by more than `tau_delta`.

        Returns the number of rescored samples (0 when the shift stayed
        within the threshold).
        """
        if shift > self.tau_delta:
            n = self._size
            self.wdist[:n] = wasserstein(self.mu[:n], self.sigma[:n], self.centroid_mu, self.centroid_sigma)
            self._farthest.clear()
            return n
        return 0

    # -- insertion ----------------------------------------------------------

    def offer(self, x: np.ndarray, labels, confidences, mu: np.ndarray, sigma: np.ndarray, entropies,
              batch_stats: ChannelStats) -> tuple[list[int], int]:
        """One batch's upkeep: score every candidate against the centroid as it was, insert them in order
        with arrival indices from `next_arrival` on, then blend `batch_stats` (the batch's early-layer
        statistics) into the centroid and rescore. `labels` (pseudo-labels), `confidences` and `entropies`
        hold one number per candidate, `mu`/`sigma` the `[B, C]` early statistics. Returns the indices of
        the candidates that passed the confidence filter and the number of rescored samples."""
        scores = self.score(mu, sigma).tolist()
        arrival = self.next_arrival
        accepted = [i for i, row in enumerate(zip(x, labels, confidences, mu, sigma, scores))
                    if self.insert(*row, arrival + i, entropies[i]).kind != "rejected_low_conf"]
        return accepted, self.maybe_rescore(self.update_centroid(batch_stats))

    def insert(self, x, label: int, conf: float, mu, sigma, wdist: float, arrival: int,
               entropy: float) -> InsertOutcome:
        """Offer one scored candidate; applies the mode's eligibility and eviction.

        `x` is the sample's input and `mu`/`sigma` its per-channel early
        statistics (numpy arrays, copied in), `wdist` its score. The
        candidate competes with the stored samples for a place; when it
        wins, it takes the victim's slot.
        """
        if arrival < self.next_arrival:
            raise ValueError(f"arrival {arrival} comes before the next arrival {self.next_arrival}")
        mode = self.selection_mode
        if x.shape != self._input_shape and self._input_shape is not None:
            raise ShapeError(f"input of shape {x.shape} in a memory of {self._input_shape} inputs")
        if mu.shape != self._stats_shape or sigma.shape != self._stats_shape:
            raise ShapeError(f"sample stats: mu {mu.shape} vs sigma {sigma.shape}, {self.mu.shape[1]} channels")
        self.next_arrival = arrival + 1
        class_balanced = mode in ("crm", "cndrm")
        if class_balanced and conf <= self.tau_conf:
            return _REJECTED
        counts = self.class_counts
        key = -float(arrival) if mode == "crm" else wdist  # see _farthest_of
        n = self._size
        if n < self.capacity:
            counts[label] = counts.get(label, 0) + 1
            self._write(n, x, label, conf, mu, sigma, wdist, arrival, entropy, key)
            self._size = n + 1
            return _INSERTED
        if not class_balanced:
            slot = self._victim(entropy)
        else:  # the victim rule of the class docstring
            sizes = {**counts, label: counts.get(label, 0) + 1}
            top, target = max(sizes.values()), None
            for c, k in sizes.items():
                if k < top:
                    continue
                far = self._farthest_of(c) if c != label or k > 1 else (key, _CANDIDATE)
                if c == label and key > far[0]:
                    far = (key, _CANDIDATE)
                if target is None or far[0] > best or (far[0] == best and c < target):
                    target, (best, slot) = c, far
        if slot == _CANDIDATE:  # the memory stays as it was
            return InsertOutcome("inserted_with_eviction", arrival)
        gone, evicted = self.labels.item(slot), self.arrivals.item(slot)
        self._farthest.pop(gone, None)
        self._write(slot, x, label, conf, mu, sigma, wdist, arrival, entropy, key)
        if gone != label:
            counts[label] = counts.get(label, 0) + 1
            if counts[gone] == 1:
                del counts[gone]
            else:
                counts[gone] -= 1
        return InsertOutcome("inserted_with_eviction", evicted)

    def _write(self, slot, x, label, conf, mu, sigma, wdist, arrival, entropy, key) -> None:
        if self.inputs is None:
            self.inputs = np.zeros((self.capacity,) + x.shape)
            self._input_shape = x.shape
        self.inputs[slot] = x
        self.labels[slot] = label
        self.confidences[slot] = conf
        self.mu[slot] = mu
        self.sigma[slot] = sigma
        self.wdist[slot] = wdist
        self.arrivals[slot] = arrival
        self.entropies[slot] = entropy
        # The newcomer, the latest arrival, tops its class only by a strictly larger key (never under crm).
        far = self._farthest.get(label)
        if far is not None and key > far[0]:
            self._farthest[label] = (key, slot)

    def _victim(self, entropy: float) -> int:
        """Slot to evict from a full naive, random or low_entropy memory, or `_CANDIDATE`.

        The candidate is the latest arrival: it loses every tie that the
        stalest sample wins.
        """
        mode = self.selection_mode
        if mode == "naive":
            slot, self._oldest = self._oldest, (self._oldest + 1) % self.capacity
            return slot
        if mode == "random":
            rank = int(self._rng.integers(self.capacity + 1))
            return _CANDIDATE if rank == self.capacity else int(self.order()[rank])
        # low_entropy: highest stored entropy goes; ties evict the stalest.
        slot, top = self._top(np.arange(self.capacity), self.entropies)
        return _CANDIDATE if entropy > top else slot

    def _farthest_of(self, label: int) -> tuple[float, int]:
        """(key, slot) of the class's highest-keyed sample, the stalest among equal keys.

        The key is the distance to the centroid under cndrm and `-arrival`
        under crm. Cached per class until the class loses a sample or the
        distances are rescored; a newcomer updates its class's entry in `_write`.
        """
        far = self._farthest.get(label)
        if far is None:
            pool = (self.labels == label).nonzero()[0]
            keys = -self.arrivals[pool].astype(float) if self.selection_mode == "crm" else self.wdist[pool]
            slot, top = self._top(pool, keys)
            far = self._farthest[label] = (float(top), slot)
        return far

    def _top(self, slots: np.ndarray, keys: np.ndarray) -> tuple[int, float]:
        """The slot with the largest key, the stalest among equal keys, and that key (one key per slot)."""
        top = keys[keys.argmax()]  # `max()` takes a slower Python-level path for the same value
        ties = slots[keys == top]
        return int(ties[self.arrivals[ties].argmin()]), top

    # -- consumption --------------------------------------------------------

    def batch(self) -> np.ndarray | None:
        """Stored inputs stacked in arrival order (a copy); None when empty."""
        if not self._size:
            return None
        return self.inputs[self.order()]

    def dump(self) -> str:
        """One line per sample in arrival order: arrival_index, pseudo-label, confidence, distance."""
        o = self.order()
        rows = zip(self.arrivals[o].tolist(), self.labels[o].tolist(),
                   self.confidences[o].tolist(), self.wdist[o].tolist())
        return "\n".join(f"{a}\t{l}\t{c!r}\t{w!r}" for a, l, c, w in rows)

    # -- checkpoint ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The engine checkpoint's `memory` section: the capacity, `next_arrival`, one entry of `SAMPLE_FIELDS`
        per sample in arrival order (an infinite `wdist` as "inf"), and the centroid."""
        o = self.order()
        columns = ([] if self.inputs is None else self.inputs[o].tolist(), self.labels[o].tolist(),
                   self.confidences[o].tolist(), self.mu[o].tolist(), self.sigma[o].tolist(),
                   [w if w != math.inf else "inf" for w in self.wdist[o].tolist()], self.arrivals[o].tolist(),
                   self.entropies[o].tolist())
        return {"capacity": self.capacity, "next_arrival": self.next_arrival,
                "samples": [dict(zip(SAMPLE_FIELDS, row)) for row in zip(*columns)],
                "centroid": {"mu": self.centroid_mu.tolist(), "sigma": self.centroid_sigma.tolist(),
                             "initialized": self.centroid_initialized}}

    @classmethod
    def from_state_dict(cls, section, num_classes: int, **settings) -> "SampleMemory":
        """A memory of a `state_dict` section's capacity, made with `settings` (the other `SampleMemory` arguments),
        that takes the section's samples in arrival order; ValueError naming the field it rejects or a sample it
        does not keep. Arrival indices rise and stay below `next_arrival`; pseudo-labels stay below `num_classes`."""
        at, cen_at = "checkpoint memory", "checkpoint memory: centroid"
        capacity, next_arrival, samples, cen = checked_fields(
            section, ("capacity", "next_arrival", "samples", "centroid"), at, ": ")
        memory = cls(checked_int(capacity, f"{at}: capacity", 1), **settings)
        channels, next_arrival = memory.mu.shape[1], checked_int(next_arrival, f"{at}: next_arrival")
        mu, sigma, initialized = checked_fields(cen, ("mu", "sigma", "initialized"), cen_at)
        memory.centroid_mu = checked_array(mu, f"{cen_at}.mu", (channels,))
        memory.centroid_sigma = checked_array(sigma, f"{cen_at}.sigma", (channels,), nonnegative=True)
        memory.centroid_initialized = checked_bool(initialized, f"{cen_at}.initialized")
        if not isinstance(samples, list):
            raise ValueError(f"{at}: samples must be a list, got {samples!r}")
        for i, s in enumerate(samples):
            x, label, conf, mu, sigma, wdist, arrival, entropy = checked_fields(s, SAMPLE_FIELDS, f"{at}: samples[{i}]")
            arrival = checked_int(arrival, f"{at}: samples[{i}].arrival_index", below=next_arrival)
            if i and arrival <= previous:
                raise ValueError(f"{at}: samples[{i}].arrival_index {arrival} does not follow samples[{i - 1}]'s "
                                 f"{previous}; samples go in arrival order")
            previous = arrival
            where = f"{at}: sample {arrival}"
            x = checked_array(x, f"{where}: input")
            if x.ndim != 2 or x.shape[0] != channels or x.shape[1] < 1:
                raise ValueError(f"{where}: input has shape {x.shape}, "
                                 f"want in_channels x L = ({channels}, L >= 1)")
            if memory._input_shape is not None and x.shape != memory._input_shape:
                raise ValueError(f"{where}: input has shape {x.shape}, the samples before it {memory._input_shape}")
            mu = checked_array(mu, f"{where}: mu", (channels,))
            sigma = checked_array(sigma, f"{where}: sigma", (channels,), nonnegative=True)
            label = checked_int(label, f"{where}: pseudo_label", below=num_classes)
            checked_number(conf, f"{where}: confidence", UNIT_INTERVAL)
            if wdist != "inf":  # the marker of an unscored sample
                checked_number(wdist, f"{where}: wdist", FINITE_NONNEGATIVE)
            checked_number(entropy, f"{where}: entropy", FINITE)
            outcome = memory.insert(x, label, conf, mu, sigma, math.inf if wdist == "inf" else wdist, arrival, entropy)
            if outcome is _REJECTED:  # the engine passes its config's tau_conf
                raise ValueError(f"{where}: confidence {conf!r} is not above config.tau_conf {memory.tau_conf!r}")
            if outcome.kind != "inserted":
                raise ValueError(f"{where} does not fit a {memory.selection_mode} memory of capacity {memory.capacity}")
        memory.next_arrival = next_arrival
        return memory
