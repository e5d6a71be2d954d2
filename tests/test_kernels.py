"""The fused kernels against the tape-based reference, bit for bit.

Floating-point sums depend on the memory layout of their operands, so a
kernel that computes the same formula with a different layout can differ
in the last bit. Every comparison here is exact (`np.array_equal`).
"""

import numpy as np
import pytest

import reference_tape as ref
from stta import model as kernels
from stta.model import default_model
from stta.numerics import Tensor

# (channels, blocks, batch, length): every channel count, block count, batch
# size and length of interest appears at least once.
SHAPES = [
    (16, 3, 16, 8),
    (3, 1, 1, 1),
    (6, 2, 16, 1),
    (16, 1, 1, 8),
    (3, 3, 16, 8),
    (6, 3, 1, 8),
    (16, 2, 16, 1),
]
IDS = [f"c{c}-b{k}-n{n}-l{l}" for c, k, n, l in SHAPES]


def make_model(channels, blocks, seed):
    model = default_model(channels=channels, blocks=blocks, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for layer in model.norm_layers:
        layer.gamma = rng.uniform(0.5, 1.5, size=channels)
        layer.beta = rng.normal(0.0, 0.3, size=channels)
        layer.running_mean = rng.normal(0.0, 0.5, size=channels)
        layer.running_var = rng.uniform(0.5, 2.0, size=channels)
    return model


def batches(channels, batch, length, count, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(0.5, 1.5, size=(batch, channels, length))) for _ in range(count)]


def assert_same_results(got, want):
    assert np.array_equal(got.logits.data, ref._val(want.logits))
    assert np.array_equal(got.early_mean, want.early_mean)
    assert np.array_equal(got.early_sigma, want.early_sigma)
    assert got.layer_extents == want.layer_extents
    for a, b in zip(got.layer_stats, want.layer_stats, strict=True):
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.var, b.var)


def assert_same_norm_layers(a, b):
    for la, lb in zip(a.norm_layers, b.norm_layers, strict=True):
        assert np.array_equal(la.gamma, lb.gamma)
        assert np.array_equal(la.beta, lb.beta)
        assert np.array_equal(la.running_mean, lb.running_mean)
        assert np.array_equal(la.running_var, lb.running_var)


@pytest.mark.parametrize("source", ["batch", "iobmn", "ema", "frozen"])
@pytest.mark.parametrize("channels,blocks,batch,length", SHAPES, ids=IDS)
def test_inference_forward(source, channels, blocks, batch, length):
    model = make_model(channels, blocks, seed=channels + blocks)
    stream = batches(channels, batch, length, 8, seed=batch + length)
    if source == "iobmn":
        first = kernels.forward(model, stream[0])
        for layer, stats, extent in zip(model.norm_layers, first.layer_stats, first.layer_extents):
            layer.memory_norm.populate(stats, extent, max(2, batch))
    mine, theirs = model.clone(), model.clone()
    for x in stream:
        assert_same_results(kernels.forward(mine, x, source), ref.forward(theirs, x, source))
    for la, lb in zip(mine.norm_layers, theirs.norm_layers):
        if source == "ema":
            assert np.array_equal(la.ema.stats.mean, lb.ema.stats.mean)
            assert np.array_equal(la.ema.stats.var, lb.ema.stats.var)


@pytest.mark.parametrize("channels,blocks,batch,length", SHAPES, ids=IDS)
def test_adapt_step_trajectory(channels, blocks, batch, length):
    model = make_model(channels, blocks, seed=2 * channels + blocks)
    mine, theirs = model.clone(), model.clone()
    for x in batches(channels, batch, length, 100, seed=7 + batch * length):
        got = kernels.adapt_step(mine, x, 1e-2)
        want = ref.adapt_step(theirs, x, 1e-2)
        assert_same_results(got, want)
        assert_same_norm_layers(mine, theirs)


@pytest.mark.parametrize("channels,blocks,batch,length", SHAPES, ids=IDS)
def test_pretrain_minibatch(channels, blocks, batch, length):
    model = make_model(channels, blocks, seed=3 * channels + blocks)
    mine, theirs = model.clone(), model.clone()
    rng = np.random.default_rng(channels * blocks)
    for x in batches(channels, batch, length, 20, seed=11 + batch * length):
        labels = rng.integers(0, model.num_classes, size=batch)
        got = kernels._pretrain_minibatch(mine, x.data, labels, 5e-2, 0.1)
        want = ref.pretrain_minibatch(theirs, x.data, labels, 5e-2, 0.1)
        assert got == want
        assert_same_norm_layers(mine, theirs)
    assert kernels.model_dict(mine) == kernels.model_dict(theirs)


def test_losses_match_reference():
    rng = np.random.default_rng(5)
    for batch, classes in ((1, 3), (16, 3), (7, 10)):
        logits = rng.normal(0.0, 3.0, size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        for mine, theirs in ((kernels.entropy_loss(logits), ref.entropy_loss),
                             (kernels.cross_entropy_loss(logits, labels),
                              lambda v: ref.cross_entropy_loss(v, labels))):
            tape = ref.Tape()
            z = tape.variable(Tensor(logits), trainable=True)
            loss = theirs(z)
            assert mine[0] == float(loss.value)
            assert np.array_equal(mine[1], ref.backward(tape, loss)[z].data)
