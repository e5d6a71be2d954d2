import hashlib
import json
import math

import numpy as np
import pytest

from stta import model as model_module
from stta.model import (
    adapt_step,
    cross_entropy_loss,
    default_model,
    entropy_loss,
    evaluate_accuracy,
    forward,
    load_model,
    model_dict,
    load_model_dict,
    pretrain,
    save_model,
)
from stta.normalization import StateError

from bad_inputs import CASES as BAD_CASES, bad_batches
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
        with pytest.raises(ValueError, match="at least one block"):
            default_model(blocks=0)

    def test_checkpoint_pinned(self):
        # Guards the weight-draw order (each block's mix, then the head) and
        # the checkpoint layout, before and after pretraining.
        from stta.datagen import default_domain, sample_source

        model = default_model(channels=6, blocks=2, seed=3)
        assert checkpoint_digest(model) == "296902bd4c9f609dfc8d32fc91d26e6881d589305b2ee0a25454458322d2bb8e"
        domain = default_domain(num_classes=3, channels=6, length=8, separation=3.0, source_noise=0.5)
        x, y = sample_source(domain, 60, 4)
        pretrain(model, x, y, epochs=2, lr=5e-2, seed=5, batch_size=16)
        assert checkpoint_digest(model) == "d130a89af3bbd82b5d390744e46533279e1124e51dc242d7b37c588f73edf7f7"


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


class TestPretrain:
    def make_source(self, seed=0, n=360):
        from stta.datagen import default_domain, sample_source

        domain = default_domain(num_classes=3, channels=8, length=8, separation=3.0,
                                source_noise=0.5)
        return sample_source(domain, n, seed)

    def test_reaches_golden_accuracy(self):
        # 3 Gaussian classes at 6 sigma separation, 8 channels, 2 blocks
        x, y = self.make_source(seed=1)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=2)
        assert pretrain(model, x, y, epochs=100, lr=1e-2, seed=3) is None
        # golden value for this exact seed triple (deterministic run)
        assert evaluate_accuracy(model, x, y, batch_size=32) == pytest.approx(0.9805555555555555, abs=1e-12)
        xt, yt = self.make_source(seed=99)  # fresh draw as a test split
        assert evaluate_accuracy(model, xt, yt) > 0.95

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

    def test_overflow_raises_where_it_happens(self):
        x, y = self.make_source(seed=10)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=11)
        with pytest.raises(FloatingPointError, match="pretraining: overflow"):
            pretrain(model, x, y, epochs=3, lr=1e200, seed=12)

    def test_running_stats_tracked(self):
        x, y = self.make_source(seed=13)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=14)
        pretrain(model, x, y, epochs=2, lr=1e-2, seed=15)
        for layer in model.norm_layers:
            assert not np.array_equal(layer.running_mean, np.zeros(8))
            assert not np.array_equal(layer.running_var, np.ones(8))


class TestEvaluateAccuracy:
    def make(self, n=30):
        x, y = TestPretrain().make_source(seed=16, n=n)
        return default_model(channels=8, num_classes=3, blocks=2, seed=17), x, y

    @pytest.mark.parametrize("case", BAD_CASES)
    def test_rejected_data_changes_nothing(self, case):
        model, x, y = self.make()
        before = checkpoint_digest(model)
        with pytest.raises(ValueError, match="^evaluation: "):
            evaluate_accuracy(model, *bad_batches(x, y, 3)[case])
        assert checkpoint_digest(model) == before

    @pytest.mark.parametrize("offset,got", [(0.9, "got float64 labels"), (5, "got labels from 5 to 7")])
    def test_label_error_names_the_rule_not_the_labels(self, offset, got):
        model, x, y = self.make(n=600)
        with pytest.raises(ValueError) as err:
            evaluate_accuracy(model, x, y + offset)
        assert str(err.value) == f"evaluation: labels must be integers in [0, 3), {got}"

    @pytest.mark.parametrize("batch_size", [0, -5, 2.5, True])
    def test_bad_batch_size_rejected(self, batch_size):
        model, x, y = self.make()
        with pytest.raises(ValueError, match=f"^evaluation: batch_size must be an integer >= 1, got {batch_size}$"):
            evaluate_accuracy(model, x, y, batch_size=batch_size)


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
        # The memory statistics' standard errors are not saved; loading recomputes them.
        x, y = TestPretrain().make_source(seed=16)
        model = default_model(channels=8, num_classes=3, blocks=2, seed=17)
        pretrain(model, x, y, epochs=1, lr=1e-2, seed=18)
        step = adapt_step(model, x[:6], 1e-3)
        for layer, stats in zip(model.norm_layers, step.layer_stats):
            layer.memory_norm.populate(stats, x.shape[2], 6)
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

    def _payload(self):
        return model_dict(default_model(channels=6, blocks=2, seed=3))

    def test_rejects_missing_relu(self):
        payload = self._payload()
        del payload["layers"][2]
        with pytest.raises(ValueError, match=r"layers\[2\] has kind 'channel_mix', want 'relu'"):
            load_model_dict(payload)

    def test_rejects_head_not_last(self):
        payload = self._payload()
        layers = payload["layers"]
        layers[-2], layers[-1] = layers[-1], layers[-2]
        with pytest.raises(ValueError, match=r"layers\[6\] has kind 'classifier_head', want 'global_mean_pool'"):
            load_model_dict(payload)

    def test_rejects_zero_blocks(self):
        payload = self._payload()
        payload["layers"] = payload["layers"][-2:]
        with pytest.raises(ValueError, match=r"layers\[0\] has kind 'global_mean_pool', want 'channel_mix'"):
            load_model_dict(payload)

    def test_rejects_unchained_mix_weight(self):
        payload = self._payload()
        payload["layers"][3]["weight"] = payload["layers"][3]["weight"][:5]
        with pytest.raises(ValueError, match=r"layers\[3\]\.weight .* has shape \(5, 6\), want \(6, 6\)"):
            load_model_dict(payload)

    def test_rejects_num_classes_disagreeing_with_head(self):
        payload = self._payload()
        payload["num_classes"] = 4
        with pytest.raises(ValueError, match=r"layers\[7\]\.weight \(in_channels x num_classes\) has shape \(6, 3\)"):
            load_model_dict(payload)

    def test_rejects_statistics_that_do_not_chain(self):
        payload = self._payload()
        payload["layers"][4]["running_var"] = [1.0] * 5
        with pytest.raises(ValueError, match=r"layers\[4\]\.running_var has shape \(5,\), want \(6,\)"):
            load_model_dict(payload)

    def test_rejects_in_channels_disagreeing_with_weights(self):
        payload = self._payload()
        payload["in_channels"] = 5
        with pytest.raises(ValueError, match=r"layers\[0\]\.weight \(in_channels x in_channels\) has shape \(6, 6\)"):
            load_model_dict(payload)

    def test_rejects_non_finite_epsilon(self):
        payload = self._payload()
        payload["layers"][1]["epsilon"] = math.nan
        with pytest.raises(ValueError, match="epsilon"):
            load_model_dict(payload)

    def test_rejects_bad_statistics(self):
        # Values are checked where they enter: every array of a checkpoint
        # must be finite, and every variance >= 0.
        cases = [
            (("layers", 1, "memory_norm", "stats"), {"mean": [0.0] * 6, "var": [1.0] * 5 + [-1.0]},
             r"layers\[1\]\.memory_norm\.stats\.var must be >= 0"),
            (("layers", 4, "ema", "stats"), {"mean": [math.nan] + [0.0] * 5, "var": [1.0] * 6},
             r"layers\[4\]\.ema\.stats\.mean must be finite"),
            (("layers", 1, "running_var"), [1.0] * 5 + [-0.5], r"layers\[1\]\.running_var must be >= 0"),
            (("layers", 4, "gamma"), [1.0] * 5 + [math.inf], r"layers\[4\]\.gamma must be finite"),
            (("layers", 7, "bias"), [0.0, math.nan, 0.0], r"layers\[7\]\.bias \(num_classes\) must be finite"),
            (("layers", 1, "memory_norm", "stats"), {"mean": [0.0] * 6, "var": [1.0] * 5},
             r"layers\[1\]\.memory_norm\.stats\.var has shape \(5,\), want \(6,\)"),
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
        (lambda p: p["layers"][1].pop("gamma"), r"^model checkpoint: layers\[1\]\.gamma is missing$"),
        (lambda p: p["layers"][7].pop("bias"), r"^model checkpoint: layers\[7\]\.bias is missing$"),
        (lambda p: p["layers"][4]["memory_norm"].pop("alpha"),
         r"^model checkpoint: layers\[4\]\.memory_norm\.alpha is missing$"),
        (lambda p: p.pop("in_channels"), r"^model checkpoint: in_channels is missing$"),
        (lambda p: p.update(layers=None), r"^model checkpoint: layers must be a list"),
        (lambda p: p["layers"][1].update(ema=[]), r"^model checkpoint: layers\[1\]\.ema must be a JSON object$"),
        (lambda p: p["layers"][1].update(epsilon="1e-5"),
         r"^model checkpoint: layers\[1\]\.epsilon must be a number > 0 and finite, got '1e-5'$"),
        (lambda p: p["layers"][4]["memory_norm"].update(alpha=True),
         r"^model checkpoint: layers\[4\]\.memory_norm\.alpha must be a number >= 0"),
        (lambda p: p["layers"][1]["ema"].update(momentum="0.9"),
         r"^model checkpoint: layers\[1\]\.ema\.momentum must be a number in \(0, 1\]"),
        (lambda p: p.update(num_classes=3.0), r"^model checkpoint: num_classes must be an integer >= 1"),
    ], ids=[
        "gamma-missing", "bias-missing", "alpha-missing", "in-channels-missing", "layers-null",
        "ema-not-an-object", "epsilon-string", "alpha-bool", "momentum-string", "num-classes-float",
    ])
    def test_rejects_malformed_fields(self, edit, message):
        payload = json.loads(json.dumps(self._payload()))
        edit(payload)
        with pytest.raises(ValueError, match=message):
            load_model_dict(payload)

    def test_rejects_a_payload_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="^model checkpoint must be a JSON object$"):
            load_model_dict([self._payload()])

    def _with_memory_stats(self, spatial_extent, sample_count):
        payload = json.loads(json.dumps(self._payload()))
        memory_norm = payload["layers"][1]["memory_norm"]
        memory_norm.update(stats={"mean": [0.0] * 6, "var": [1.0] * 6},
                           spatial_extent=spatial_extent, sample_count=sample_count)
        return payload

    @pytest.mark.parametrize("extent,count,message", [
        ("5", 4, r"layers\[1\]\.memory_norm\.spatial_extent must be an integer >= 1, got '5'"),
        (2.9, 4, r"layers\[1\]\.memory_norm\.spatial_extent must be an integer >= 1, got 2\.9"),
        (4, 0, r"layers\[1\]\.memory_norm\.sample_count must be an integer >= 1, got 0"),
        (8, True, r"layers\[1\]\.memory_norm\.sample_count must be an integer >= 1, got True"),
        (1, 1, r"layers\[1\]\.memory_norm: spatial_extent x sample_count must be >= 2"),
    ])
    def test_rejects_bad_memory_sample_size(self, extent, count, message):
        # A sample size below 2 would load and then fail at the first served iobmn batch.
        with pytest.raises(ValueError, match="^model checkpoint: " + message):
            load_model_dict(self._with_memory_stats(extent, count))

    def test_loads_smallest_memory_sample_size(self):
        layer = load_model_dict(self._with_memory_stats(1, 2)).norm_layers[0]
        assert (layer.memory_norm.spatial_extent, layer.memory_norm.sample_count) == (1, 2)
