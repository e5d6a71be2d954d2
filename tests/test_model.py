import hashlib
import json
import math
import re

import numpy as np
import pytest

from stta import model as model_module
from stta import numerics
from stta.model import (
    adapt_step,
    cross_entropy_loss,
    default_model,
    entropy_loss,
    forward,
    load_model,
    model_dict,
    load_model_dict,
    per_sample_entropy,
    pretrain,
    save_model,
)
from stta.engine import Engine, EngineConfig
from stta.normalization import MemoryNormState, StateError

from bad_inputs import CASES as BAD_CASES, V1_MODEL, bad_batches
from oracles import entropy_mp, finite_difference_grad


def rand_input(shape=(4, 16, 8), seed=0, loc=0.0, scale=1.0):
    return np.random.default_rng(seed).normal(loc, scale, size=shape)


def straight_line_forward(model, x):
    """Independent numpy re-evaluation of the default architecture."""
    out = np.array(x)
    for weight, layer in zip(model.mix_weights, model.norm_layers):
        out = np.einsum("oc,bcl->bol", weight, out)
        mean = out.mean(axis=(0, 2), keepdims=True)
        var = ((out - mean) ** 2).mean(axis=(0, 2), keepdims=True)
        out = layer.gamma.reshape(1, -1, 1) * (out - mean) / np.sqrt(var + layer.epsilon) \
            + layer.beta.reshape(1, -1, 1)
        out = np.maximum(out, 0.0)
    out = out.mean(axis=2)
    return out @ model.head_weight + model.head_bias


def weight_digest(model, skip_norm_affine=False):
    h = hashlib.sha256()
    for weight, layer in zip(model.mix_weights, model.norm_layers):
        h.update(weight.tobytes())
        if not skip_norm_affine:
            h.update(layer.gamma.tobytes())
            h.update(layer.beta.tobytes())
    h.update(model.head_weight.tobytes())
    h.update(model.head_bias.tobytes())
    return h.hexdigest()


def checkpoint_digest(model):
    return hashlib.sha256(json.dumps(model_dict(model), sort_keys=True).encode()).hexdigest()


class TestBuild:
    def test_same_seed_same_weights(self):
        a, b = default_model(seed=3), default_model(seed=3)
        assert weight_digest(a) == weight_digest(b)
        c = default_model(seed=4)
        assert weight_digest(a) != weight_digest(c)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError, match="^blocks must be an integer >= 1, got 0$"):
            default_model(blocks=0)

    @pytest.mark.parametrize("kwargs,named", [
        ({"channels": 0}, "channels must be an integer >= 1, got 0"),
        ({"channels": 2.5}, "channels must be an integer >= 1, got 2.5"),
        ({"num_classes": 0}, "num_classes must be an integer >= 1, got 0"),
        ({"num_classes": "3"}, "num_classes must be an integer >= 1, got '3'"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
        ({"blocks": 2.5}, "blocks must be an integer >= 1, got 2.5"),
        ({"blocks": "3"}, "blocks must be an integer >= 1, got '3'"),
        ({"blocks": True}, "blocks must be an integer >= 1, got True"),
    ], ids=["zero-channels", "float-channels", "zero-classes", "text-classes", "negative-seed", "float-seed",
            "float-blocks", "text-blocks", "bool-blocks"])
    def test_rejects_bad_argument(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            default_model(**kwargs)

    def test_checkpoint_pinned(self):
        # Guards the weight-draw order (each block's mix, then the head) and
        # the checkpoint layout, before and after pretraining.
        from stta.datagen import DomainSpec, sample_source

        model = default_model(channels=6, blocks=2, seed=3)
        assert checkpoint_digest(model) == "a75e4aa1c347765e92dccf4f77c53d6cabb522753b10569213a82bac59402b3f"
        domain = DomainSpec(num_classes=3, channels=6, length=8, separation=3.0, source_noise=0.5)
        x, y = sample_source(domain, 60, 4)
        pretrain(model, x, y, epochs=2, lr=5e-2, seed=5, batch_size=16)
        assert checkpoint_digest(model) == "800b7506e70fe25309398aeee9cc9fe857745f4b51fa916199917874cf839390"


class TestForward:
    def test_zero_input_zero_features(self):
        model = default_model(seed=0)
        res = forward(model, np.zeros((1, 16, 8)))
        assert np.array_equal(res.early_mean, np.zeros((1, 16)))
        assert np.array_equal(res.early_sigma, np.zeros((1, 16)))
        # 0 / sqrt(0 + eps) = 0 all the way to the pooled features; logits are
        # the head bias (zero at init)
        assert np.allclose(res.logits, 0.0, atol=1e-12)

    def test_normalization_identity(self):
        model = default_model(seed=1)
        x = rand_input(seed=2, loc=2.0, scale=3.0)
        captured = {}
        # re-run the first block stats from the returned layer stats
        res = forward(model, x)
        assert len(res.layer_stats) == 3
        # with unit gamma / zero beta the normalized output of each norm layer
        # is zero-mean, variance var/(var+eps)
        out = x
        for weight, layer in zip(model.mix_weights, model.norm_layers):
            out = np.einsum("oc,bcl->bol", weight, out)
            mean = out.mean(axis=(0, 2), keepdims=True)
            var = ((out - mean) ** 2).mean(axis=(0, 2), keepdims=True)
            normed = (out - mean) / np.sqrt(var + layer.epsilon)
            m = normed.mean(axis=(0, 2))
            v = normed.var(axis=(0, 2))
            assert np.max(np.abs(m)) < 1e-6
            want = (var / (var + layer.epsilon)).ravel()
            assert np.max(np.abs(v - want)) < 1e-5
            out = np.maximum(normed, 0.0)  # gamma=1, beta=0 at init

    def test_matches_straight_line_oracle(self):
        model = default_model(seed=5)
        # give the affine params non-trivial values
        rng = np.random.default_rng(6)
        for layer in model.norm_layers:
            layer.gamma = rng.uniform(0.5, 1.5, size=16)
            layer.beta = rng.normal(size=16)
        x = rand_input(seed=7)
        got = forward(model, x).logits
        want = straight_line_forward(model, x)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_early_stats_are_per_sample_std(self):
        model = default_model(seed=8)
        x = rand_input(seed=9)
        res = forward(model, x)
        feats = np.einsum("oc,bcl->bol", model.mix_weights[0], x)
        assert np.allclose(res.early_mean, feats.mean(axis=2), atol=1e-12)
        assert np.allclose(res.early_sigma, feats.std(axis=2), atol=1e-12)

    def test_iobmn_source_requires_population(self):
        model = default_model(seed=10)
        with pytest.raises(StateError):
            forward(model, rand_input(), "iobmn")

    def test_deterministic(self):
        model = default_model(seed=11)
        x = rand_input(seed=12)
        a = forward(model, x).logits
        b = forward(model, x).logits
        assert np.array_equal(a, b)

    def test_input_shape_checked(self):
        model = default_model()
        with pytest.raises(Exception):
            forward(model, np.zeros((2, 4, 8)))


class TestEntropyLoss:
    def test_uniform_is_log_k(self):
        logits = np.zeros((3, 10))
        assert entropy_loss(logits)[0] == pytest.approx(math.log(10.0), abs=1e-12)

    def test_dominant_logit_near_zero(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        assert entropy_loss(logits)[0] < 1e-9

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(0, 3, size=(5, 4))
        want = float(np.mean([entropy_mp(list(r)) for r in logits]))
        assert entropy_loss(logits)[0] == pytest.approx(want, abs=1e-10)

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            logits = rng.normal(0, 5, size=(3, k))
            val = entropy_loss(logits)[0]
            assert -1e-12 <= val <= math.log(k) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        z0 = rng.normal(0, 2, size=(3, 4))

        def value(flat):
            return entropy_loss(np.array(flat).reshape(3, 4))[0]

        grads = entropy_loss(z0)[1].ravel()
        fd = np.array(finite_difference_grad(value, list(z0.ravel()), h=1e-4))
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grads - fd) / denom) < 1e-4


class TestPerSampleEntropy:
    def test_equals_the_where_form_on_exact_zeros_and_ones(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.25, 0.75],
                         [1.0 - 2.0 ** -53, 2.0 ** -53, 0.0], [tiny, 1.0, 0.0], [1e-310, 0.0, 1.0], [1e-300, 1.0, 0.0]])
        # softmax rows whose exponentials underflow to exact zeros and whose largest entry is exactly 1.0
        logits = np.array([[0.0, -800.0, -800.0], [-800.0, 0.0, 5.0], [3.0, 3.0, -1e4], [0.0, -745.0, -700.0]])
        p = np.vstack([rows, numerics.softmax(logits)])
        assert (p == 0.0).any() and (p == 1.0).any()
        where_form = -np.add.reduce(p * np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), 0.0), axis=-1)
        assert per_sample_entropy(p).tobytes() == where_form.tobytes()


class TestCrossEntropyLoss:
    @pytest.mark.parametrize("labels", [[0, 1, 3], [-1, 1, 2], [0, 1], [[0], [1], [2]], [0.5, 1.2, 2.9],
                                        [0.0, 1.0, 2.0], ["0", "1", "2"], [0, np.nan, 2], [True, False, True]],
                             ids=["above", "negative", "short", "2-D", "fractional", "integral floats", "strings",
                                  "nan", "booleans"])
    def test_rejects_labels_that_are_not_class_indices(self, labels):
        with pytest.raises(ValueError, match=r"^cross-entropy: labels "):
            cross_entropy_loss(np.zeros((3, 3)), labels)


class TestAdaptStep:
    def test_lr_zero_keeps_parameters(self):
        model = default_model(seed=16)
        before = weight_digest(model)
        res = adapt_step(model, rand_input(seed=17), 0.0)
        assert res is not None and len(res.layer_stats) == 3
        assert weight_digest(model) == before

    def test_empty_memory_skips(self):
        model = default_model(seed=18)
        assert adapt_step(model, None, 1e-3) is None
        assert adapt_step(model, np.zeros((0, 16, 8)), 1e-3) is None

    def test_descent_on_own_objective(self):
        model = default_model(seed=19)
        batch = rand_input(seed=20, loc=1.0)
        before = entropy_loss(forward(model, batch).logits)[0]
        adapt_step(model, batch, 1e-4)
        after = entropy_loss(forward(model, batch).logits)[0]
        assert after <= before + 1e-12

    def test_only_norm_affine_parameters_move(self):
        model = default_model(seed=21)
        frozen_before = weight_digest(model, skip_norm_affine=True)
        affine_before = weight_digest(model)
        adapt_step(model, rand_input(seed=22), 1e-2)
        assert weight_digest(model, skip_norm_affine=True) == frozen_before
        assert weight_digest(model) != affine_before

    def test_delta_is_minus_lr_times_gradient(self):
        lr = 1e-3
        model = default_model(seed=23, channels=6, blocks=2)
        batch = np.random.default_rng(24).normal(0.5, 1.5, size=(5, 6, 4))
        gammas = [l.gamma.copy() for l in model.norm_layers]
        betas = [l.beta.copy() for l in model.norm_layers]

        def loss_with(params):
            probe = model_dict(model)
            clone = load_model_dict(probe)
            i = 0
            for layer in clone.norm_layers:
                layer.gamma = np.array(params[i:i + 6]); i += 6
                layer.beta = np.array(params[i:i + 6]); i += 6
            return entropy_loss(forward(clone, batch).logits)[0]

        flat0 = []
        for g, b in zip(gammas, betas):
            flat0.extend(g); flat0.extend(b)
        fd = np.array(finite_difference_grad(loss_with, flat0, h=1e-4))

        adapt_step(model, batch, lr)
        deltas = []
        for layer, g0, b0 in zip(model.norm_layers, gammas, betas):
            deltas.extend(layer.gamma - g0)
            deltas.extend(layer.beta - b0)
        deltas = np.array(deltas)
        denom = np.maximum(np.abs(lr * fd), 1e-10)
        assert np.max(np.abs(deltas + lr * fd) / denom) < 1e-3

    def test_returns_stats_observed_before_update(self):
        model = default_model(seed=25)
        batch = rand_input(seed=26)
        plain = forward(model, batch)
        res = adapt_step(model, batch, 1e-2)
        for a, b in zip(plain.layer_stats, res.layer_stats):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.var, b.var)


ENTRIES = {"forward": lambda model, x: forward(model, x),
           "adaptation step": lambda model, x: adapt_step(model, x, 1e-2)}


class TestSampleDtypeRule:
    """`forward` and `adapt_step` apply `checked_batch`'s dtype rule: real numbers only, taken as float64."""

    @pytest.mark.parametrize("kind", [str, object])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_non_numeric_samples_are_refused_naming_the_dtype(self, entry, kind):
        model = default_model(seed=21)
        before = checkpoint_digest(model)
        bad = rand_input(seed=22).astype(kind)
        with pytest.raises(ValueError) as err:
            ENTRIES[entry](model, bad)
        rule = "samples must be real numbers (bool, integer or float)"
        assert str(err.value) == f"{entry}: {rule}, got {bad.dtype} samples"
        assert checkpoint_digest(model) == before

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_ragged_samples_are_refused_by_name(self, entry):
        x = rand_input(seed=22)
        with pytest.raises(ValueError, match=f"^{entry}: rejected ragged samples"):
            ENTRIES[entry](default_model(seed=21), [*x[:-1], x[-1, :, :-1]])

    @pytest.mark.parametrize("kind", [bool, np.int8, np.int64, np.uint16, np.float16, np.float32, np.float64, list])
    def test_numeric_samples_give_the_results_of_their_float64_values(self, kind):
        x = rand_input(seed=23, scale=3.0)
        x = x.tolist() if kind is list else x.astype(kind)
        want = np.asarray(x, dtype=np.float64)
        assert forward(default_model(seed=24), x).logits.tobytes() == \
            forward(default_model(seed=24), want).logits.tobytes()
        a, b = default_model(seed=24), default_model(seed=24)
        assert adapt_step(a, x, 1e-2).logits.tobytes() == adapt_step(b, want, 1e-2).logits.tobytes()
        assert checkpoint_digest(a) == checkpoint_digest(b)


def batch_stats_accuracy(model, x, y, batch_size=32):
    """Share of `x` classified as `y` by batch-statistics forwards over consecutive `batch_size` slices."""
    correct = sum(int((forward(model, x[s:s + batch_size]).logits.argmax(axis=1) == y[s:s + batch_size]).sum())
                  for s in range(0, x.shape[0], batch_size))
    return correct / x.shape[0]


class TestPretrain:
    def make_source(self, seed=0, n=360):
        from stta.datagen import DomainSpec, sample_source

        domain = DomainSpec(num_classes=3, channels=8, length=8, separation=3.0, source_noise=0.5)
        return sample_source(domain, n, seed)

    def test_reaches_golden_accuracy(self):
        # 3 Gaussian classes at 6 sigma separation, 8 channels, 2 blocks
        x, y = self.make_source(seed=1)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=2)
        assert pretrain(model, x, y, epochs=100, lr=1e-2, seed=3) is None
        # golden value for this exact seed triple (deterministic run)
        assert batch_stats_accuracy(model, x, y) == pytest.approx(0.9805555555555555, abs=1e-12)
        xt, yt = self.make_source(seed=99)  # fresh draw as a test split
        assert batch_stats_accuracy(model, xt, yt) > 0.95

    @pytest.mark.parametrize("n,batch_size,epochs", [(360, 32, 3), (64, 32, 2), (10, 4, 1), (5, 8, 0)])
    def test_forwards_only_its_minibatches(self, monkeypatch, n, batch_size, epochs):
        # One recorded forward per minibatch and nothing after the last: no closing evaluation sweep.
        calls = []
        run = model_module.forward
        monkeypatch.setattr(model_module, "forward", lambda *a, **k: calls.append(k.get("record")) or run(*a, **k))
        x, y = self.make_source(seed=4, n=n)
        pretrain(default_model(channels=8, num_classes=3, blocks=2, seed=5), x, y, epochs=epochs, lr=1e-2,
                 seed=6, batch_size=batch_size)
        assert calls == [True] * (epochs * math.ceil(n / batch_size))

    def test_zero_epochs_is_identity(self):
        x, y = self.make_source(seed=4)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=5)
        before = weight_digest(model)
        pretrain(model, x, y, epochs=0, lr=1e-2, seed=6)
        assert weight_digest(model) == before

    def test_same_seed_bit_identical(self):
        x, y = self.make_source(seed=7)
        digests = []
        for _ in range(2):
            model = default_model(channels=8, num_classes=3, blocks=2, seed=8)
            pretrain(model, x, y, epochs=3, lr=1e-2, seed=9)
            digests.append(weight_digest(model))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("case", BAD_CASES)
    def test_rejected_data_changes_nothing(self, case):
        x, y = self.make_source(seed=10, n=30)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=11)
        before = checkpoint_digest(model)
        with pytest.raises(ValueError, match="^pretraining: "):
            pretrain(model, *bad_batches(x, y, 3)[case], epochs=1, lr=1e-2, seed=12)
        assert checkpoint_digest(model) == before

    @pytest.mark.parametrize("setting,value,rule", [
        ("epochs", -1, "an integer >= 0"), ("epochs", 2.0, "an integer >= 0"), ("epochs", True, "an integer >= 0"),
        ("batch_size", 0, "an integer >= 1"), ("batch_size", -1, "an integer >= 1"),
        ("batch_size", 2.5, "an integer >= 1"), ("batch_size", True, "an integer >= 1"),
        ("lr", float("nan"), "a number > 0 and finite"), ("lr", math.inf, "a number > 0 and finite"),
        ("lr", 0.0, "a number > 0 and finite"), ("lr", -1e-2, "a number > 0 and finite"),
    ])
    def test_bad_setting_rejected(self, setting, value, rule):
        x, y = self.make_source(seed=10, n=30)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=11)
        before = checkpoint_digest(model)
        settings = {"epochs": 1, "lr": 1e-2, "batch_size": 8, setting: value}
        with pytest.raises(ValueError, match=f"^pretraining: {setting} must be {rule}, got {value!r}$"):
            pretrain(model, x, y, seed=12, **settings)
        assert checkpoint_digest(model) == before

    @pytest.mark.parametrize("offset,got", [(0.9, "got float64 labels"), (5, "got labels from 5 to 7")])
    def test_label_error_names_the_rule_not_the_labels(self, offset, got):
        x, y = self.make_source(seed=16, n=600)
        with pytest.raises(ValueError) as err:
            pretrain(default_model(channels=8, num_classes=3, blocks=2, seed=17), x, y + offset, epochs=1)
        assert str(err.value) == f"pretraining: labels must be integers in [0, 3), {got}"

    @pytest.mark.parametrize("kind", [str, bytes, object, complex])
    def test_non_numeric_samples_are_refused_naming_the_dtype(self, kind):
        x, y = self.make_source(seed=16, n=30)
        bad = x.astype(kind)
        with pytest.raises(ValueError) as err:
            pretrain(default_model(channels=8, num_classes=3, blocks=2, seed=17), bad, y, epochs=1)
        rule = "samples must be real numbers (bool, integer or float)"
        assert str(err.value) == f"pretraining: {rule}, got {bad.dtype} samples"

    def test_ragged_samples_are_refused_by_name(self):
        x, y = self.make_source(seed=16, n=30)
        with pytest.raises(ValueError) as err:
            pretrain(default_model(channels=8, num_classes=3, blocks=2, seed=17), [*x[:-1], x[-1, :, :-1]], y)
        assert str(err.value) == "pretraining: rejected ragged samples; want one array of real numbers"

    def test_real_samples_are_taken_as_float64_and_float64_is_not_copied(self):
        x, y = self.make_source(seed=16, n=30)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=17)
        assert model_module.checked_batch(x, y, model, "pretraining")[0] is x
        for kind in (bool, np.int32, np.uint8, np.float32):
            xv = model_module.checked_batch(x.astype(kind), y, model, "pretraining")[0]
            assert xv.dtype == np.float64 and np.array_equal(xv, x.astype(kind).astype(np.float64))

    def test_overflow_raises_where_it_happens(self):
        x, y = self.make_source(seed=10)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=11)
        with pytest.raises(FloatingPointError, match="pretraining: overflow"):
            pretrain(model, x, y, epochs=3, lr=1e200, seed=12)

    def test_one_minibatch_blends_a_tenth_of_its_statistics(self):
        # One epoch of one minibatch: running = 0.9 x init + 0.1 x that minibatch's statistics, before its update.
        x, y = self.make_source(seed=13, n=40)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=14)
        rng = np.random.default_rng(19)
        for layer in model.norm_layers:
            layer.running_mean, layer.running_var = rng.normal(size=8), rng.uniform(0.5, 2.0, size=8)
        init = [(layer.running_mean, layer.running_var) for layer in model.norm_layers]
        order = np.random.default_rng(15).permutation(40)  # pretrain's shuffle at seed 15
        seen = forward(model.clone(), x[order], "batch", record=True).layer_stats
        pretrain(model, x, y, epochs=1, lr=1e-2, seed=15, batch_size=40)
        for layer, (mean, var), stats in zip(model.norm_layers, init, seen):
            assert layer.running_mean.tobytes() == (0.9 * mean + 0.1 * stats.mean).tobytes()
            assert layer.running_var.tobytes() == (0.9 * var + 0.1 * stats.var).tobytes()

    def test_running_stats_tracked(self):
        x, y = self.make_source(seed=13)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=14)
        pretrain(model, x, y, epochs=2, lr=1e-2, seed=15)
        for layer in model.norm_layers:
            assert not np.array_equal(layer.running_mean, np.zeros(8))
            assert not np.array_equal(layer.running_var, np.ones(8))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        x, y = TestPretrain().make_source(seed=16)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=17)
        pretrain(model, x, y, epochs=1, lr=1e-2, seed=18)
        adapt_step(model, x[:6], 1e-3)  # populate nothing, move affine
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert weight_digest(loaded) == weight_digest(model)
        for a, b in zip(model.norm_layers, loaded.norm_layers):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
        xt = rand_input((3, 8, 8), seed=19)
        assert np.array_equal(forward(model, xt).logits,
                              forward(loaded, xt).logits)

    def test_round_trip_keeps_iobmn_logits_bitwise(self, tmp_path):
        # The dead zone is not saved; the loaded value sizes it again on its first served batch.
        x, y = TestPretrain().make_source(seed=16)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=17)
        pretrain(model, x, y, epochs=1, lr=1e-2, seed=18)
        step = adapt_step(model, x[:6], 1e-3)
        for layer, stats in zip(model.norm_layers, step.layer_stats):
            layer.memory_norm = MemoryNormState(layer.memory_norm.alpha, stats, x.shape[2], 6)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        xt = rand_input((3, 8, 8), seed=19)
        assert np.array_equal(forward(model, xt, "iobmn").logits, forward(loaded, xt, "iobmn").logits)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_clone_is_independent(self):
        model = default_model(seed=20)
        clone = model.clone()
        clone.norm_layers[0].gamma = clone.norm_layers[0].gamma + 1.0
        assert not np.array_equal(model.norm_layers[0].gamma, clone.norm_layers[0].gamma)
        # An engine's model, adapted under its own alpha and momentum: the clone keeps both and serves bit for bit.
        x, _ = TestPretrain().make_source(seed=16)
        engine = Engine(default_model(channels=8, num_classes=3, blocks=2, seed=17),
                        EngineConfig(ar=1, alpha=16.0, ema_momentum=0.5, tau_conf=0.0, capacity=6, seed=18))
        for start in range(0, 24, 6):
            engine.process_batch(x[start:start + 6])
        model = engine.model
        forward(model, x[24:30], "ema")  # an EMA to fold the next batch into
        clone = model.clone()
        assert [(l.memory_norm.alpha, l.ema.momentum) for l in clone.norm_layers] == [(16.0, 0.5)] * 2
        xt = rand_input((3, 8, 8), seed=19, loc=1.0, scale=2.0)
        for source in ("iobmn", "ema"):
            assert np.array_equal(forward(clone, xt, source).logits, forward(model, xt, source).logits)

    def test_a_loaded_model_serves_at_the_default_settings(self):
        # The file holds no alpha or momentum: an `Engine` sets its config's values on every model it runs.
        engine = Engine(default_model(channels=6, blocks=2, seed=3), EngineConfig(alpha=16.0, ema_momentum=0.5))
        loaded = load_model_dict(model_dict(engine.model))
        assert [(l.memory_norm.alpha, l.ema.momentum) for l in loaded.norm_layers] == [(4.0, 0.9)] * 2
        restored = Engine(loaded, engine.config).model
        assert [(l.memory_norm.alpha, l.ema.momentum) for l in restored.norm_layers] == [(16.0, 0.5)] * 2

    def test_writes_the_model_fields_once(self):
        payload = self._payload()
        assert list(payload) == ["format", "version", "mix_weights", "norm_layers", "head_weight", "head_bias"]
        assert list(payload["norm_layers"][0]) == ["gamma", "beta", "epsilon", "running_mean", "running_var",
                                                   "memory_norm", "ema"]
        assert list(payload["norm_layers"][0]["memory_norm"]) == ["stats", "spatial_extent", "sample_count"]
        assert list(payload["norm_layers"][0]["ema"]) == ["stats"]
        assert (payload["version"], len(payload["mix_weights"]), np.shape(payload["head_weight"])) == (2, 2, (6, 3))

    def test_rejects_version_one(self):
        with pytest.raises(ValueError, match="^unsupported model checkpoint version 1$"):
            load_model_dict(V1_MODEL)

    def _payload(self):
        return model_dict(default_model(channels=6, blocks=2, seed=3))

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.update(mix_weights=[]), r"mix_weights must be a non-empty list, got \[\]$"),
        (lambda p: p.update(norm_layers=[]), r"norm_layers must be a non-empty list, got \[\]$"),
        (lambda p: p.update(mix_weights={}), r"mix_weights must be a non-empty list, got \{\}$"),
        (lambda p: p.update(norm_layers=None), r"norm_layers must be a non-empty list, got None$"),
        (lambda p: p["mix_weights"].pop(), r"1 mix_weights and 2 norm_layers, want one of each per block$"),
        (lambda p: p["norm_layers"].pop(), r"2 mix_weights and 1 norm_layers, want one of each per block$"),
        (lambda p: p["mix_weights"][0].pop(),
         r"mix_weights\[0\] has shape \(5, 6\), want \(5, 5\)$"),
        (lambda p: p["mix_weights"].__setitem__(0, []), r"mix_weights\[0\] has shape \(0,\), want \(0, 0\)$"),
        (lambda p: p["mix_weights"][1].pop(), r"mix_weights\[1\] has shape \(5, 6\), want \(6, 6\)$"),
        (lambda p: p["mix_weights"].__setitem__(1, np.eye(5).tolist()),
         r"mix_weights\[1\] has shape \(5, 5\), want \(6, 6\)$"),
        (lambda p: p["head_weight"].pop(), r"head_weight has shape \(5, 3\), want 6 x classes, classes >= 1$"),
        (lambda p: p.update(head_weight=[[]] * 6), r"head_weight has shape \(6, 0\), want 6 x classes"),
        (lambda p: p.update(head_bias=[0.0] * 4), r"head_bias has shape \(4,\), want \(3,\)$"),
        (lambda p: p["norm_layers"][1].update(running_var=[1.0] * 5),
         r"norm_layers\[1\]\.running_var has shape \(5,\), want \(6,\)$"),
    ], ids=[
        "mix-weights-empty", "norm-layers-empty", "mix-weights-not-a-list", "norm-layers-not-a-list",
        "fewer-mix-weights", "fewer-norm-layers", "first-mix-not-square", "first-mix-flat", "later-mix-rows",
        "later-mix-other-square", "head-rows", "head-no-classes", "head-bias-length", "norm-statistics-length",
    ])
    def test_rejects_shapes_that_do_not_chain(self, edit, message):
        payload = json.loads(json.dumps(self._payload()))
        edit(payload)
        with pytest.raises(ValueError, match="^model checkpoint: " + message):
            load_model_dict(payload)

    def test_rejects_non_finite_epsilon(self):
        payload = self._payload()
        payload["norm_layers"][0]["epsilon"] = math.nan
        with pytest.raises(ValueError, match="epsilon"):
            load_model_dict(payload)

    def test_rejects_bad_statistics(self):
        # Values are checked where they enter: every array of a checkpoint
        # must be finite, and every variance >= 0.
        cases = [
            (("norm_layers", 0, "memory_norm", "stats"), {"mean": [0.0] * 6, "var": [1.0] * 5 + [-1.0]},
             r"norm_layers\[0\]\.memory_norm\.stats\.var must be >= 0"),
            (("norm_layers", 1, "ema", "stats"), {"mean": [math.nan] + [0.0] * 5, "var": [1.0] * 6},
             r"norm_layers\[1\]\.ema\.stats\.mean must be finite"),
            (("norm_layers", 0, "running_var"), [1.0] * 5 + [-0.5], r"norm_layers\[0\]\.running_var must be >= 0"),
            (("norm_layers", 1, "gamma"), [1.0] * 5 + [math.inf], r"norm_layers\[1\]\.gamma must be finite"),
            (("head_bias",), [0.0, math.nan, 0.0], r"head_bias must be finite"),
            (("head_weight", 2), [0.0, math.inf, 0.0], r"head_weight must be finite"),
            (("mix_weights", 0, 4), [math.nan] * 6, r"mix_weights\[0\] must be finite"),
            (("mix_weights", 1, 0), [-math.inf] * 6, r"mix_weights\[1\] must be finite"),
            (("norm_layers", 0, "memory_norm", "stats"), {"mean": [0.0] * 6, "var": [1.0] * 5},
             r"norm_layers\[0\]\.memory_norm\.stats\.var has shape \(5,\), want \(6,\)"),
        ]
        for path, value, message in cases:
            payload = json.loads(json.dumps(self._payload()))
            target = payload
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(ValueError, match=message):
                load_model_dict(payload)

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p["norm_layers"][0].pop("gamma"), r"^model checkpoint: norm_layers\[0\]\.gamma is missing$"),
        (lambda p: p.pop("head_bias"), r"^model checkpoint: head_bias is missing$"),
        (lambda p: p.pop("head_weight"), r"^model checkpoint: head_weight is missing$"),
        (lambda p: p["norm_layers"][1]["memory_norm"].pop("stats"),
         r"^model checkpoint: norm_layers\[1\]\.memory_norm\.stats is missing$"),
        (lambda p: p.pop("mix_weights"), r"^model checkpoint: mix_weights is missing$"),
        (lambda p: p["norm_layers"].__setitem__(1, 3), r"^model checkpoint: norm_layers\[1\] must be a JSON object$"),
        (lambda p: p["norm_layers"][0].update(ema=[]),
         r"^model checkpoint: norm_layers\[0\]\.ema must be a JSON object$"),
        (lambda p: p["norm_layers"][0].update(epsilon="1e-5"),
         r"^model checkpoint: norm_layers\[0\]\.epsilon must be a number > 0 and finite, got '1e-5'$"),
        (lambda p: p["norm_layers"][1].update(epsilon=True),
         r"^model checkpoint: norm_layers\[1\]\.epsilon must be a number > 0 and finite, got True$"),
    ], ids=[
        "gamma-missing", "bias-missing", "head-weight-missing", "memory-stats-missing", "mix-weights-missing",
        "norm-entry-not-an-object", "ema-not-an-object", "epsilon-string", "epsilon-bool",
    ])
    def test_rejects_malformed_fields(self, edit, message):
        payload = json.loads(json.dumps(self._payload()))
        edit(payload)
        with pytest.raises(ValueError, match=message):
            load_model_dict(payload)

    @pytest.mark.parametrize("path,key,named", [
        ((), "bogus", "model checkpoint: bogus"),
        (("norm_layers", 0), "kind", "model checkpoint: norm_layers[0].kind"),
        (("norm_layers", 0, "memory_norm"), "alpha", "model checkpoint: norm_layers[0].memory_norm.alpha"),
        (("norm_layers", 1, "ema"), "momentum", "model checkpoint: norm_layers[1].ema.momentum"),
        (("norm_layers", 0, "memory_norm", "stats"), "std", "model checkpoint: norm_layers[0].memory_norm.stats.std"),
        (("norm_layers", 1, "ema", "stats"), "count", "model checkpoint: norm_layers[1].ema.stats.count"),
    ], ids=["top", "norm-entry", "memory-norm-alpha", "ema-momentum", "memory-stats", "ema-stats"])
    def test_rejects_an_unknown_key_at_every_level(self, path, key, named):
        # Every object holds exactly its keys: a leftover version-1 `alpha` is refused, not ignored.
        payload = json.loads(json.dumps(self._payload()))
        for layer in payload["norm_layers"]:
            stats = {"mean": [0.0] * 6, "var": [1.0] * 6}
            layer["memory_norm"].update(stats=dict(stats), spatial_extent=4, sample_count=2)
            layer["ema"]["stats"] = dict(stats)
        load_model_dict(json.loads(json.dumps(payload)))  # loads as it is
        owner = payload
        for step in path:
            owner = owner[step]
        owner[key] = 16.0
        with pytest.raises(ValueError) as err:
            load_model_dict(payload)
        assert str(err.value) == f"{named} is an unknown key"

    def test_rejects_a_payload_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="^model checkpoint must be a JSON object$"):
            load_model_dict([self._payload()])

    STATS = {"mean": [0.0] * 6, "var": [1.0] * 6}

    def _with_memory_stats(self, spatial_extent, sample_count, stats=STATS):
        payload = json.loads(json.dumps(self._payload()))
        memory_norm = payload["norm_layers"][0]["memory_norm"]
        memory_norm.update(stats=stats, spatial_extent=spatial_extent, sample_count=sample_count)
        return payload

    @pytest.mark.parametrize("stats,extent,count,message", [
        (STATS, "5", 4, r"norm_layers\[0\]\.memory_norm\.spatial_extent must be an integer >= 1, got '5'"),
        (STATS, 2.9, 4, r"norm_layers\[0\]\.memory_norm\.spatial_extent must be an integer >= 1, got 2\.9"),
        (STATS, 4, 0, r"norm_layers\[0\]\.memory_norm\.sample_count must be an integer >= 1, got 0"),
        (STATS, 8, True, r"norm_layers\[0\]\.memory_norm\.sample_count must be an integer >= 1, got True"),
        (STATS, 1, 1, r"norm_layers\[0\]\.memory_norm: spatial_extent x sample_count must be >= 2"),
        (None, "x", 0, r"norm_layers\[0\]\.memory_norm\.spatial_extent must be the integer 0 where stats is null, "
                       r"got 'x'$"),
        (None, 0, None, r"norm_layers\[0\]\.memory_norm\.sample_count must be the integer 0 where stats is null, "
                        r"got None$"),
        (None, 1, 0, r"norm_layers\[0\]\.memory_norm\.spatial_extent must be the integer 0 where stats is null, "
                     r"got 1$"),
        (None, 0, True, r"norm_layers\[0\]\.memory_norm\.sample_count must be the integer 0 where stats is null, "
                        r"got True$"),
    ], ids=["extent-string", "extent-float", "count-zero", "count-bool", "size-one",
            "null-stats-extent-string", "null-stats-count-none", "null-stats-extent-one", "null-stats-count-bool"])
    def test_rejects_bad_memory_sample_size(self, stats, extent, count, message):
        # A sample size below 2 would load and then fail at the first served iobmn batch; without
        # statistics there is no sample size, and only the writer's 0s state that.
        with pytest.raises(ValueError, match="^model checkpoint: " + message):
            load_model_dict(self._with_memory_stats(extent, count, stats))

    def test_loads_smallest_memory_sample_size(self):
        layer = load_model_dict(self._with_memory_stats(1, 2)).norm_layers[0]
        assert (layer.memory_norm.spatial_extent, layer.memory_norm.sample_count) == (1, 2)
