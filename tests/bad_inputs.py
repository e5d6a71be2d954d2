"""Inputs that break a rule, shared by every entry that applies it: labelled batches that break the one batch and
label rule, and a model checkpoint of the retired version 1."""

import numpy as np


def bad_batches(x, labels, num_classes):
    """Each case as (samples, labels), made from a valid batch of at least 7 samples of at least 4 x 5 values."""
    nan, inf = x.copy(), x.copy()
    nan[2, 3, 4] = np.nan
    inf[0, 0, 0] = -np.inf
    at = np.arange(len(labels))
    return {
        "2-D": (x[0], labels),
        "empty": (x[:0], labels[:0]),
        "channels": (x[:, :x.shape[1] - 1], labels),
        "nan": (nan, labels),
        "inf": (inf, labels),
        "string samples": (x.astype(str), labels),
        "ragged samples": ([*x[:-1], x[-1, :, :-1]], labels),
        "complex samples": (x.astype(complex), labels),
        "short labels": (x, labels[:-1]),
        "long labels": (x, np.append(labels, 0)),
        "2-D labels": (x, labels[:, None]),
        "string labels": (x, labels.astype(str)),
        "nan labels": (x, np.where(at == 5, np.nan, labels)),
        "fractional labels": (x, labels + 0.5),
        "negative label": (x, np.where(at == 2, -1, labels)),
        "label = num_classes": (x, np.where(at == 6, num_classes, labels)),
    }


CASES = list(bad_batches(np.zeros((7, 4, 5)), np.zeros(7, dtype=int), 2))


# A one-block, one-channel, two-class model in the version-1 layout: a list of kinds, with the channels and classes
# stated beside the weights and the engine's `alpha` and `momentum` in the norm entry. Every reader refuses it.
V1_MODEL = {"format": "stta-model", "version": 1, "in_channels": 1, "num_classes": 2, "layers": [
    {"kind": "channel_mix", "weight": [[1.0]]},
    {"kind": "norm", "gamma": [1.0], "beta": [0.0], "epsilon": 1e-5, "running_mean": [0.0], "running_var": [1.0],
     "memory_norm": {"alpha": 4.0, "stats": None, "spatial_extent": 0, "sample_count": 0},
     "ema": {"momentum": 0.9, "stats": None}},
    {"kind": "relu"},
    {"kind": "global_mean_pool"},
    {"kind": "classifier_head", "weight": [[1.0, -1.0]], "bias": [0.0, 0.0]},
]}
