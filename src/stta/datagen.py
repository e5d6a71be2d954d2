"""Synthetic labeled source datasets and label-free shifted target streams.

Classes are well-separated Gaussian blobs over a channel x length feature
map; covariate shift is an affine map plus additive noise and an optional
fixed channel permutation, leaving the label rule unchanged. Everything is
a pure function of (spec, seed), so streams replay bit-for-bit. Each type
checks its fields, raising a ValueError that starts with the field's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import checked_int, checked_number

_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0.0, ">= 0 and finite")  # a `checked_number` rule


@dataclass(frozen=True)
class Corruption:
    """Affine covariate shift: x -> scale*x + offset + N(0, noise^2).

    With `permute` set, channels are cyclically shifted by one before the
    affine map (a fixed permutation, the same for every sample).
    """

    scale: float = 1.0
    offset: float = 0.0
    noise: float = 0.0
    permute: bool = False

    def __post_init__(self) -> None:
        for name in ("scale", "offset"):
            checked_number(getattr(self, name), name, math.isfinite, "that is finite")
        checked_number(self.noise, "noise", *_NONNEGATIVE)
        if not isinstance(self.permute, bool):
            raise ValueError(f"permute must be true or false, got {self.permute!r}")


IDENTITY = Corruption()


def corruption_presets() -> dict[str, Corruption]:
    """Catalog standing in for corruption severity levels."""
    return {
        "none": IDENTITY,
        "scale_mild": Corruption(scale=1.6),
        "scale_strong": Corruption(scale=3.0, offset=1.0),
        "offset": Corruption(offset=2.0),
        "noise": Corruption(noise=1.5),
        "permute": Corruption(permute=True),
    }


def _preset(name: str) -> Corruption:
    presets = corruption_presets()
    if name not in presets:
        raise ValueError(f"corruption: unknown corruption preset {name!r} (have {', '.join(sorted(presets))})")
    return presets[name]


@dataclass(frozen=True)
class DomainSpec:
    num_classes: int
    channels: int
    length: int
    class_means: np.ndarray = field(repr=False)  # num_classes x channels
    source_noise: float = 0.5
    corruption: Corruption = IDENTITY

    def __post_init__(self) -> None:
        checked_int(self.num_classes, "num_classes", 2)
        checked_int(self.channels, "channels", 1)
        checked_int(self.length, "length", 1)
        checked_number(self.source_noise, "source_noise", *_NONNEGATIVE)
        object.__setattr__(self, "class_means", np.asarray(self.class_means, dtype=np.float64))
        if self.class_means.shape != (self.num_classes, self.channels):
            raise ValueError(
                f"class_means {self.class_means.shape} do not match {self.num_classes} x {self.channels}")


def class_mean_patterns(num_classes: int, channels: int, separation: float = 3.0) -> np.ndarray:
    """Per-channel class patterns with exactly `separation` pairwise distance.

    One scaled one-hot per class (requires num_classes <= channels).
    """
    checked_int(num_classes, "num_classes", 2)
    checked_int(channels, "channels", 1)
    checked_number(separation, "separation", *_NONNEGATIVE)
    if num_classes > channels:
        raise ValueError(f"num_classes must be <= channels for one-hot patterns, got {num_classes} > {channels}")
    means = np.zeros((num_classes, channels))
    means[np.arange(num_classes), np.arange(num_classes)] = separation / math.sqrt(2.0)
    return means


def default_domain(num_classes: int = 3, channels: int = 16, length: int = 8,
                   separation: float = 3.0, source_noise: float = 0.5,
                   corruption: Corruption | str = IDENTITY) -> DomainSpec:
    if isinstance(corruption, str):
        corruption = _preset(corruption)
    return DomainSpec(num_classes, channels, length, class_mean_patterns(num_classes, channels, separation),
                      source_noise, corruption)


def sample_source(spec: DomainSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced labeled draws from the clean source domain.

    Returns (inputs n x channels x length, labels n). Class counts differ
    by at most one; the corruption on `spec` is ignored here (source data
    is by definition unshifted).
    """
    if n < spec.num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % spec.num_classes
    labels = labels[rng.permutation(n)]
    base = spec.class_means[labels][:, :, None]
    # scale-0 normal draws are exact zeros, so this covers the noiseless case
    x = base + rng.normal(0.0, spec.source_noise, size=(n, spec.channels, spec.length))
    return x, labels


def corrupt(x: np.ndarray, corruption: Corruption, rng: np.random.Generator) -> np.ndarray:
    """Apply a covariate shift, drawing its noise (if any) from `rng`; labels are untouched by construction."""
    out = np.asarray(x, dtype=np.float64)
    if corruption.permute:
        channels = out.shape[-2]
        perm = (np.arange(channels) + 1) % channels
        out = out[..., perm, :]
    out = corruption.scale * out + corruption.offset
    if corruption.noise > 0.0:
        out = out + rng.normal(0.0, corruption.noise, size=out.shape)
    return out


@dataclass(frozen=True)
class StreamSpec:
    segments: tuple[tuple[DomainSpec, int], ...]  # (domain, batch count)
    batch_size: int
    seed: int
    correlated: bool = False  # label-sorted runs instead of i.i.d. order

    def __post_init__(self) -> None:
        checked_int(self.batch_size, "batch_size", 1)
        checked_int(self.seed, "seed")
        if not isinstance(self.correlated, bool):
            raise ValueError(f"correlated must be true or false, got {self.correlated!r}")
        if not self.segments:
            raise ValueError("segments must hold at least one segment")
        object.__setattr__(self, "segments", tuple(
            (d, checked_int(n, f"segments[{i}].batches", 1)) for i, (d, n) in enumerate(self.segments)))
        shapes = [f"{d.num_classes} classes of {d.channels} x {d.length} samples" for d, _ in self.segments]
        for i, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise ValueError(f"segments[{i}].domain has {shape}, segments[0].domain {shapes[0]}: "
                                 "every segment of a stream needs the same sample shape")


@dataclass(frozen=True)
class StreamBatch:
    x: np.ndarray             # batch x channels x length
    labels: np.ndarray        # evaluation-only labels
    segment: int              # index into the stream's segment list


def make_stream(spec: StreamSpec):
    """Yield the configured batches with eval labels and segment tags."""
    rng = np.random.default_rng(spec.seed)
    for segment_index, (domain, n_batches) in enumerate(spec.segments):
        total = n_batches * spec.batch_size
        labels = rng.integers(0, domain.num_classes, size=total)
        if spec.correlated:
            labels = np.sort(labels)
        clean = domain.class_means[labels][:, :, None] + rng.normal(
            0.0, domain.source_noise, size=(total, domain.channels, domain.length))
        shifted = corrupt(clean, domain.corruption, rng)
        for b in range(n_batches):
            lo = b * spec.batch_size
            hi = lo + spec.batch_size
            yield StreamBatch(shifted[lo:hi], labels[lo:hi].copy(), segment_index)


def single_domain_stream(corruption: Corruption | str = "noise", batches: int = 100,
                         batch_size: int = 16, seed: int = 0, correlated: bool = False,
                         **domain_kwargs) -> StreamSpec:
    domain = default_domain(corruption=corruption, **domain_kwargs)
    return StreamSpec(((domain, batches),), batch_size, seed, correlated)


def continual_stream(corruptions=("scale_strong", "noise", "offset"), batches_per_segment: int = 60,
                     batch_size: int = 16, seed: int = 0, correlated: bool = False,
                     **domain_kwargs) -> StreamSpec:
    segments = tuple((default_domain(corruption=c, **domain_kwargs), batches_per_segment)
                     for c in corruptions)
    return StreamSpec(segments, batch_size, seed, correlated)
