"""Standalone entropy-minimization loop (no memory, no scheduling).

The classic every-batch adaptation baseline, written directly against the
numerics and model primitives: predict on the live batch, then take one
SGD step on the norm layers' scale/shift minimizing the prediction
entropy of that same batch. Used to check that the engine collapses to
exactly this when its memory and scheduling features are neutralized.
"""

import numpy as np

import reference_tape as nm
from reference_tape import Tape, Tensor, entropy_loss, forward


def tent_step(model, batch: np.ndarray, lr: float) -> np.ndarray:
    """Predict, then update gamma/beta on the same batch; returns predictions."""
    predictions = forward(model, batch).logits.data.argmax(axis=1)
    tape = Tape()
    norm_params = {}
    slots = []
    for block, layer in enumerate(model.norm_layers):
        g = tape.variable(Tensor._wrap(layer.gamma), trainable=True)
        b = tape.variable(Tensor._wrap(layer.beta), trainable=True)
        norm_params[block] = (g, b)
        slots.append((layer, g, b))
    x = tape.variable(batch)
    loss = entropy_loss(forward(model, x, "batch", norm_params).logits)
    grads = nm.backward(tape, loss)
    for layer, g, b in slots:
        layer.gamma = layer.gamma - lr * grads[g].data
        layer.beta = layer.beta - lr * grads[b].data
    return predictions


def run_tent(model, batches, lr: float):
    """Adapt over a stream; returns per-batch affine snapshots and predictions."""
    snapshots = []
    all_predictions = []
    for batch in batches:
        preds = tent_step(model, batch, lr)
        all_predictions.append(preds)
        snapshots.append([
            (layer.gamma.copy(), layer.beta.copy()) for layer in model.norm_layers
        ])
    return snapshots, all_predictions
