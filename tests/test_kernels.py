"""The fused kernels against the tape-based reference, bit for bit.

Floating-point sums depend on the memory layout of their operands, so a
kernel that computes the same formula with a different layout can differ
in the last bit. Every comparison here is exact (`np.array_equal`).
"""

import numpy as np
import pytest

import reference_tape as ref
from stta import model as kernels
from stta.datagen import DomainSpec, sample_source
from stta.model import NORM_SOURCES, default_model
from stta.normalization import MemoryNormState

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
    (6, 3, 3, 1),     # a batch of 3 at length 1: the first mix reads the input's rows as a Fortran-ordered view
    (16, 3, 16, 9),   # 9: one past numpy's unrolled blocks of 8 in the sums over length
    (16, 2, 4, 130),  # 130: past the 128-element blocks of numpy's pairwise sums
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
    return [rng.normal(0.5, 1.5, size=(batch, channels, length)) for _ in range(count)]


def assert_same_results(got, want):
    assert np.array_equal(got.logits, ref._val(want.logits))
    if got.record is None:
        assert np.array_equal(got.early_mean, want.early_mean)
        assert np.array_equal(got.early_sigma, want.early_sigma)
    else:  # no training step reads them, so a recorded forward does not compute them
        assert got.early_mean is None and got.early_sigma is None
    for a, b in zip(got.layer_stats, want.layer_stats, strict=True):
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.var, b.var)


def assert_same_norm_layers(a, b):
    for la, lb in zip(a.norm_layers, b.norm_layers, strict=True):
        assert np.array_equal(la.gamma, lb.gamma)
        assert np.array_equal(la.beta, lb.beta)
        assert np.array_equal(la.running_mean, lb.running_mean)
        assert np.array_equal(la.running_var, lb.running_var)


def populate_memory_norm(model, x):
    for layer, stats in zip(model.norm_layers, kernels.forward(model, x).layer_stats):
        layer.memory_norm = MemoryNormState(layer.memory_norm.alpha, stats, x.shape[2], max(2, x.shape[0]))


@pytest.mark.parametrize("source", NORM_SOURCES)
@pytest.mark.parametrize("channels,blocks,batch,length", SHAPES, ids=IDS)
def test_inference_forward(source, channels, blocks, batch, length):
    model = make_model(channels, blocks, seed=channels + blocks)
    stream = batches(channels, batch, length, 8, seed=batch + length)
    if source == "iobmn":
        populate_memory_norm(model, stream[0])
    mine, theirs = model.clone(), model.clone()
    for x in stream:
        assert_same_results(kernels.forward(mine, x, source), ref.forward(theirs, x, source))
    for la, lb in zip(mine.norm_layers, theirs.norm_layers):
        if source == "ema":
            assert np.array_equal(la.ema.stats.mean, lb.ema.stats.mean)
            assert np.array_equal(la.ema.stats.var, lb.ema.stats.var)


@pytest.mark.parametrize("beta", [0.0, -0.0], ids=["beta+0", "beta-0"])
@pytest.mark.parametrize("source", NORM_SOURCES)
def test_inference_forward_through_a_zeroed_channel(source, beta):
    """A channel whose normalization output is exactly +-0.0, in every block: the
    serving relu (`np.maximum` without a mask) must give what the reference's gives."""
    model = make_model(6, 3, seed=4)
    for layer in model.norm_layers:
        layer.gamma[2], layer.beta[2] = 0.0, beta
    stream = batches(6, 16, 8, 4, seed=9)
    if source == "iobmn":
        populate_memory_norm(model, stream[0])
    mine, theirs = model.clone(), model.clone()
    for x in stream:
        got, want = kernels.forward(mine, x, source), ref.forward(theirs, x, source)
        assert_same_results(got, want)
        assert got.logits.tobytes() == ref._val(want.logits).tobytes()  # signs of zero too


def forward_relu(a):
    """The forward's relu: `np.maximum` in place, on a copy that keeps the layout of `a`."""
    out = a.copy(order="K")
    return np.maximum(out, 0.0, out=out)


def test_serving_relu_is_relu_bit_for_bit():
    """`np.maximum(x, 0.0)` gives the reference relu's +0.0 for -0.0, 0.0 and negative subnormals."""
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
                        1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0])
    rng = np.random.default_rng(3)
    for n in (1, 3, 16, 2048):  # scalar tails and vector loops
        x = rng.choice(special, size=n)
        want = ref._val(ref.relu(x))
        assert forward_relu(x).tobytes() == want.tobytes()
        assert np.array_equal(forward_relu(x) > 0.0, x > 0.0)  # the recorded mask, taken from the output
    cube = rng.choice(special, size=(16, 6, 8))
    channel_major = cube.transpose(1, 0, 2).copy().transpose(1, 0, 2)  # the channel mix's layout
    assert forward_relu(channel_major).tobytes() == ref._val(ref.relu(cube)).tobytes()


@pytest.mark.parametrize("source", NORM_SOURCES)
def test_only_a_training_forward_is_recorded(source):
    model = make_model(6, 2, seed=5)
    x = batches(6, 16, 8, 1, seed=6)[0]
    if source == "iobmn":
        populate_memory_norm(model, x)
    served = kernels.forward(model, x, source)
    assert served.record is None
    if source != "batch":
        with pytest.raises(ValueError, match="only a batch-statistics forward can be recorded"):
            kernels.forward(model, x, source, record=True)
        return
    recorded = kernels.forward(model, x, "batch", record=True)
    assert len(recorded.record) == len(model.norm_layers)
    assert_same_results(served, ref.forward(model.clone(), x))
    assert_same_results(recorded, ref.forward(model.clone(), x))


def test_serving_and_recorded_batch_statistics_forwards_agree_bit_for_bit():
    """Both batch-statistics forwards keep channel rows from the first mix to the pool, so every mix reads a
    C-ordered `(C, B*L)` operand, and the normalization takes the same operations in the same order (in place
    when serving, into new arrays when recorded). Their logits and layer statistics are the same bits at every
    shape of the grid, and both equal the reference's at a length-1 shape."""
    differ = set()
    for channels in (1, 3, 6, 16):
        for blocks in (1, 2, 3):
            for batch in (1, 2, 3, 4, 16, 33):
                for length in (1, 2, 8, 9):
                    model = make_model(channels, blocks, seed=channels + blocks)
                    x = batches(channels, batch, length, 1, seed=batch + length)[0]
                    served, recorded = kernels.forward(model, x), kernels.forward(model, x, record=True)
                    stats = zip(served.layer_stats, recorded.layer_stats, strict=True)
                    if not (np.array_equal(served.logits, recorded.logits)
                            and all(np.array_equal(a.mean, b.mean) and np.array_equal(a.var, b.var) for a, b in stats)):
                        differ.add((channels, blocks, batch, length))
    assert differ == set()
    model, x = make_model(16, 2, seed=18), batches(16, 3, 1, 1, seed=4)[0]
    want = ref.forward(model.clone(), x)
    assert_same_results(kernels.forward(model, x), want)
    assert_same_results(kernels.forward(model, x, record=True), want)


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
        got = kernels._pretrain_minibatch(mine, x, labels, 5e-2)
        want = ref.pretrain_minibatch(theirs, x, labels, 5e-2)
        assert got == want
        assert_same_norm_layers(mine, theirs)
    assert kernels.model_dict(mine) == kernels.model_dict(theirs)


def test_pretrain_equals_the_reference_loop():
    """`pretrain` is its shuffled minibatch loop around the step `test_pretrain_minibatch` checks: the same
    loop on the reference step gives the same checkpoint (the one `TestBuild.test_checkpoint_pinned` pins)."""
    domain = DomainSpec(num_classes=3, channels=6, length=8, separation=3.0, source_noise=0.5)
    x, y = sample_source(domain, 60, 4)
    mine, theirs = default_model(channels=6, blocks=2, seed=3), default_model(channels=6, blocks=2, seed=3)
    kernels.pretrain(mine, x, y, epochs=2, lr=5e-2, seed=5, batch_size=16)
    rng = np.random.default_rng(5)
    for _ in range(2):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], 16):
            take = order[start:start + 16]
            ref.pretrain_minibatch(theirs, x[take], y[take], 5e-2)
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
            z = tape.variable(logits, trainable=True)
            loss = theirs(z)
            assert mine[0] == float(loss.value)
            assert np.array_equal(mine[1], ref.backward(tape, loss)[z].data)
