"""Labelled batches that break the one batch and label rule, shared by every entry that applies it."""

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
