"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. End-to-end thresholds were frozen from a calibration run
with seeds 0..4 (documented inline at criterion 6); everything here is
deterministic apart from wall-clock measurements.

Shared per-seed source models are pretrained once in a module fixture
(about ten seconds); criterion timings cover each criterion's own body.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from stta.datagen import (
    DomainSpec,
    continual_stream,
    make_stream,
    sample_source,
)
from stta.engine import AdaptationSchedule, Engine, EngineConfig
from stta.memory import SampleMemory, wasserstein
from stta.model import default_model, pretrain
from stta.normalization import (
    ChannelStats,
    MemoryNormState,
    batch_channel_stats,
    corrected_stats,
    normalize,
    sampling_variances,
)

from memory_oracle import OracleMemory
from oracles import (
    corrected_stats_mp,
    finite_difference_grad,
    normalize_mp,
    sampling_variances_mp,
    soft_shrinkage_mp,
    wasserstein_mp,
)
from reference_tape import Tape, Tensor, backward, forward
from tent_oracle import run_tent

SEEDS = (0, 1, 2, 3, 4)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def pretrain_source_model(seed: int):
    domain = DomainSpec()
    x, y = sample_source(domain, 600, seed + 10_000)
    model = default_model(seed=seed + 20_000)
    pretrain(model, x, y, epochs=60, lr=5e-2, seed=seed + 30_000)
    return model


@pytest.fixture(scope="module")
def source_models():
    return {seed: pretrain_source_model(seed) for seed in SEEDS}


def run_engine(base_model, stream_spec, seed, **config):
    model = base_model.clone()
    model.reset_inference_stats()
    engine = Engine(model, EngineConfig(seed=seed, **config))
    return engine.run_stream(make_stream(stream_spec)), model, engine


# ---------------------------------------------------------------------------


def test_criterion_1_formula_oracles():
    with criterion(1, "formula oracles at 1e-10 over 1000 random inputs", budget_seconds=5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            x = float(rng.uniform(-10, 10))
            lam = float(rng.uniform(0, 5))
            # memory mean 0, and variance 2 over extent 1 x count 2: standard error 1, so the mean zone is lam
            state = MemoryNormState(lam, ChannelStats(np.zeros(1), np.full(1, 2.0)), 1, 2)
            got = corrected_stats(state, ChannelStats(np.array([x]), np.full(1, 2.0))).mean.item()
            assert abs(got - soft_shrinkage_mp(x, lam)) < 1e-10

        for _ in range(1000):
            mu_a, mu_b = rng.normal(size=4), rng.normal(size=4)
            sig_a, sig_b = rng.uniform(0, 3, size=4), rng.uniform(0, 3, size=4)
            got = wasserstein(mu_a, sig_a, mu_b, sig_b)
            assert abs(got - wasserstein_mp(mu_a, sig_a, mu_b, sig_b)) < 1e-10

        for _ in range(1000):
            var = rng.uniform(0, 8, size=3)
            extent, count = int(rng.integers(1, 10)), int(rng.integers(2, 30))
            state = MemoryNormState(1.0, ChannelStats(np.zeros(3), var), extent, count)
            s2m, s2v = sampling_variances(state)
            want_m, want_v = sampling_variances_mp(var, extent, count)
            assert np.max(np.abs(s2m - want_m)) < 1e-10
            assert np.max(np.abs(s2v - want_v)) < 1e-10

        for _ in range(1000):
            mem_mean, live_mean = rng.normal(size=3), rng.normal(size=3)
            mem_var = rng.uniform(0.01, 4, size=3)
            live_var = rng.uniform(0, 4, size=3)
            alpha = float(rng.uniform(0, 6))
            state = MemoryNormState(alpha, ChannelStats(mem_mean, mem_var), 4, 7)
            got = corrected_stats(state, ChannelStats(live_mean, live_var))
            want_mean, want_var = corrected_stats_mp(mem_mean, mem_var, live_mean, live_var, 4, 7, alpha)
            assert np.max(np.abs(got.mean - want_mean)) < 1e-10
            assert np.max(np.abs(got.var - want_var)) < 1e-10

        for _ in range(1000):
            f = rng.normal(0.3, 1.2, size=(2, 3, 2))
            gamma, beta = rng.normal(size=3), rng.normal(size=3)
            mem_mean, mem_var = rng.normal(size=3), rng.uniform(0.05, 3, size=3)
            alpha = float(rng.uniform(0, 5))
            state = MemoryNormState(alpha, ChannelStats(mem_mean, mem_var), 3, 6)
            rows = f.transpose(1, 0, 2).reshape(3, -1)  # the channel rows the forward normalizes
            stats = corrected_stats(state, batch_channel_stats(rows)[0])
            got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
            want = np.array(normalize_mp(f.tolist(), list(mem_mean), list(mem_var),
                                         3, 6, alpha, list(gamma), list(beta), 1e-5))
            assert np.max(np.abs(got - want.transpose(1, 0, 2).reshape(3, -1))) < 1e-10


def _min_relu_margin(model, batch: Tensor) -> float:
    """Smallest |pre-activation| reaching a relu; guards the FD stencil."""
    out = batch.data
    margin = np.inf
    for weight, layer in zip(model.mix_weights, model.norm_layers):
        out = np.einsum("oc,bcl->bol", weight, out)
        mean = out.mean(axis=(0, 2), keepdims=True)
        var = ((out - mean) ** 2).mean(axis=(0, 2), keepdims=True)
        out = layer.gamma.reshape(1, -1, 1) * (out - mean) / np.sqrt(var + layer.epsilon) \
            + layer.beta.reshape(1, -1, 1)
        margin = min(margin, float(np.abs(out).min()))
        out = np.maximum(out, 0.0)
    return margin


def test_criterion_2_gradient_correctness():
    with criterion(2, "norm-affine entropy gradients vs finite differences", budget_seconds=30.0):
        channels = 6
        worst = 0.0
        for draw in range(20):
            rng = np.random.default_rng(200 + draw)
            model = default_model(channels=channels, blocks=3, seed=300 + draw)
            for layer in model.norm_layers:
                layer.gamma = rng.uniform(0.5, 1.5, size=channels)
                layer.beta = rng.normal(0, 0.3, size=channels)
            # central differences need smoothness across the stencil: retry
            # deterministically until no relu input sits within reach of 0
            for attempt in range(50):
                batch_rng = np.random.default_rng(200 + draw + 1000 * (attempt + 1))
                batch = Tensor(batch_rng.normal(0.5, 1.5, size=(5, channels, 4)))
                if _min_relu_margin(model, batch) > 2e-3:
                    break
            else:
                pytest.fail("no kink-free batch found")

            from reference_tape import entropy_loss

            tape = Tape()
            norm_params = {}
            slots = []
            for block, layer in enumerate(model.norm_layers):
                g = tape.variable(Tensor(layer.gamma), trainable=True)
                b = tape.variable(Tensor(layer.beta), trainable=True)
                norm_params[block] = (g, b)
                slots.append((g, b))
            loss = entropy_loss(forward(model, tape.variable(batch), "batch", norm_params).logits)
            grads = backward(tape, loss)
            analytic = np.concatenate([
                np.concatenate([grads[g].data, grads[b].data]) for g, b in slots])

            def loss_with(flat):
                probe = model.clone()
                i = 0
                for layer in probe.norm_layers:
                    layer.gamma = np.array(flat[i:i + channels]); i += channels
                    layer.beta = np.array(flat[i:i + channels]); i += channels
                return entropy_loss(forward(probe, batch).logits).item()

            flat0 = []
            for layer in model.norm_layers:
                flat0.extend(layer.gamma); flat0.extend(layer.beta)
            fd = np.array(finite_difference_grad(loss_with, flat0, h=1e-4))
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4, f"worst relative gradient error {worst}"


def test_criterion_3_memory_oracle_equivalence():
    with criterion(3, "memory trajectory equals naive re-simulation", budget_seconds=10.0):
        capacity, classes, channels, batch = 16, 3, 16, 16
        for seed in (0, 1, 2):
            rng = np.random.default_rng(400 + seed)
            memory = SampleMemory(capacity, channels, tau_conf=0.5, beta=0.9, selection_mode="cndrm")
            oracle = OracleMemory(capacity, 0.5, 0.9)
            tiny = np.zeros((1, 1))
            for step in range(1000):
                mu = rng.normal(size=channels)
                sigma = rng.uniform(0, 2, size=channels)
                label = int(rng.integers(0, classes))
                conf = float(rng.uniform(0, 1))
                memory.insert(tiny, label, conf, mu, sigma, float(memory.score(mu, sigma)), step, 0.0)
                oracle.offer(step, label, conf, mu, sigma)
                if (step + 1) % batch == 0:
                    mean = rng.normal(size=channels)
                    var = rng.uniform(0.1, 2, size=channels)
                    shift = memory.update_centroid(ChannelStats(mean, var))
                    memory.maybe_rescore(shift)
                    oracle.step_centroid(mean, var)
                assert memory.dump() == oracle.dump(), f"seed {seed} diverged at step {step}"


def test_criterion_4_tent_equivalence():
    with criterion(4, "engine reduces to the standalone every-batch loop", budget_seconds=30.0):
        base = pretrain_source_model(7)
        spec = continual_stream(("noise",), batches_per_segment=200, batch_size=16, seed=7)
        batches = list(make_stream(spec))

        engine_model = base.clone()
        engine_model.reset_inference_stats()
        engine = Engine(engine_model, EngineConfig(
            ar=1, tau_conf=0.0, selection_mode="naive",
            inference_stats_mode="batch", capacity=16, lr=1e-3, seed=7))

        oracle_model = base.clone()
        oracle_model.reset_inference_stats()
        snapshots, _ = run_tent(oracle_model, [b.x for b in batches], lr=1e-3)

        for i, batch in enumerate(batches):
            engine.process_batch(batch.x, batch.labels)
            for layer, (g_want, b_want) in zip(engine_model.norm_layers, snapshots[i]):
                assert np.array_equal(layer.gamma, g_want), f"gamma diverged at batch {i}"
                assert np.array_equal(layer.beta, b_want), f"beta diverged at batch {i}"


def test_criterion_5_memory_norm_limits():
    with criterion(5, "memory-norm limit and dead-zone/saturation invariants"):
        rng = np.random.default_rng(500)
        # alpha = 0: test-batch normalization to 1e-12
        for _ in range(200):
            rows = rng.normal(0.5, 2.0, size=(4, 3, 5)).transpose(1, 0, 2).reshape(3, -1)  # channel rows
            gamma, beta = rng.normal(size=3), rng.normal(size=3)
            state = MemoryNormState(0.0, ChannelStats(rng.normal(size=3), rng.uniform(0.1, 2, size=3)), 5, 9)
            live, _ = batch_channel_stats(rows)
            stats = corrected_stats(state, live)
            got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
            want = gamma.reshape(-1, 1) * (rows - live.mean.reshape(-1, 1)) \
                / np.sqrt(live.var + 1e-5).reshape(-1, 1) + beta.reshape(-1, 1)
            assert np.max(np.abs(got - want)) < 1e-12

        # alpha huge: memory-statistics normalization to 1e-12
        for _ in range(200):
            rows = rng.normal(0.0, 2.0, size=(4, 3, 5)).transpose(1, 0, 2).reshape(3, -1)  # channel rows
            gamma, beta = rng.normal(size=3), rng.normal(size=3)
            mem_mean, mem_var = rng.normal(size=3), rng.uniform(0.1, 2, size=3)
            state = MemoryNormState(1e9, ChannelStats(mem_mean, mem_var), 5, 9)
            stats = corrected_stats(state, batch_channel_stats(rows)[0])
            got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
            want = gamma.reshape(-1, 1) * (rows - mem_mean.reshape(-1, 1)) \
                / np.sqrt(mem_var + 1e-5).reshape(-1, 1) + beta.reshape(-1, 1)
            assert np.max(np.abs(got - want)) < 1e-12

        # dead zone and saturation bound over 1000 random cases
        for case in range(1000):
            channels = 3
            mem_mean = rng.normal(size=channels)
            mem_var = rng.uniform(0.05, 3, size=channels)
            alpha = float(rng.uniform(0.1, 6))
            state = MemoryNormState(alpha, ChannelStats(mem_mean, mem_var), 4, 8)
            s2m, s2v = sampling_variances(state)
            lam_mean = alpha * np.sqrt(s2m)
            lam_var = alpha * np.sqrt(s2v)
            if case % 2 == 0:  # force the dead zone
                live_mean = mem_mean + rng.uniform(-1, 1, size=channels) * lam_mean
                live_var = np.maximum(mem_var + rng.uniform(-1, 1, size=channels) * lam_var, 0.0)
                live_var = np.minimum(live_var, mem_var + lam_var)
                out = corrected_stats(state, ChannelStats(live_mean, live_var))
                assert np.array_equal(out.mean, mem_mean)
                assert np.array_equal(out.var, mem_var)
            else:
                live_mean = rng.normal(scale=3, size=channels)
                live_var = rng.uniform(0, 6, size=channels)
                out = corrected_stats(state, ChannelStats(live_mean, live_var))
                gap = np.abs(out.mean - live_mean)
                assert np.all(gap <= lam_mean + 1e-12)
                outside = np.abs(live_mean - mem_mean) > lam_mean
                assert np.allclose(gap[outside], lam_mean[outside], atol=1e-12)
                assert np.all(out.var >= 0.0)


# Calibration run of 2026-08-10, seeds 0..4, default 3-class stream,
# corruption scale_strong (scale 3.0 offset 1.0), 150 batches of 16,
# engine defaults (tau_conf 0.5, alpha 4, beta 0.9, lr 1e-3) and CnDRM's fixed rescoring threshold 0.1,
# source models pretrained 600 samples / 60 epochs / lr 5e-2:
#   source-only  0.7454
#   naive @0.1   0.9864
#   snap  @0.1   0.9957   (>= naive on 5/5 seeds)
#   full  @1     0.9863
CALIBRATED = {"source-only": 0.7454, "naive": 0.9864, "snap": 0.9957, "full": 0.9863}


def test_criterion_6_end_to_end_pattern(source_models):
    with criterion(6, "accuracy ordering and sparse-vs-full gap", budget_seconds=120.0):
        spec = lambda seed: continual_stream(("scale_strong",), batches_per_segment=150,
                                             batch_size=16, seed=seed)
        accs = {"source-only": [], "naive": [], "snap": [], "full": []}
        for seed in SEEDS:
            base = source_models[seed]
            m, _, _ = run_engine(base, spec(seed), seed, ar=0, inference_stats_mode="frozen")
            accs["source-only"].append(m.accuracy())
            m, _, _ = run_engine(base, spec(seed), seed, ar="0.1",
                                 selection_mode="naive", inference_stats_mode="batch")
            accs["naive"].append(m.accuracy())
            m, _, _ = run_engine(base, spec(seed), seed, ar="0.1",
                                 selection_mode="cndrm", inference_stats_mode="iobmn")
            accs["snap"].append(m.accuracy())
            m, _, _ = run_engine(base, spec(seed), seed, ar=1, tau_conf=0.0,
                                 selection_mode="naive", inference_stats_mode="batch")
            accs["full"].append(m.accuracy())

        means = {k: float(np.mean(v)) for k, v in accs.items()}
        print(f"  means: {means}")
        assert means["source-only"] < means["naive"] < means["snap"], means
        assert means["snap"] >= means["full"] - 0.05, means
        wins = sum(s >= n for s, n in zip(accs["snap"], accs["naive"]))
        assert wins >= 4, f"snap >= naive on only {wins}/5 seeds"
        for key, value in CALIBRATED.items():
            assert abs(means[key] - value) < 0.03, (key, means[key], value)


def test_criterion_7_pseudo_label_quality(source_models):
    with criterion(7, "confidence-selected pseudo-labels beat random"):
        conf_acc, rand_acc = [], []
        for seed in SEEDS:
            spec = continual_stream(("scale_strong",), batches_per_segment=150, batch_size=16, seed=seed)
            m, _, _ = run_engine(source_models[seed], spec, seed, ar="0.1",
                                 selection_mode="cndrm", inference_stats_mode="batch")
            conf_acc.append(m.pseudo_label_accuracy())
            m, _, _ = run_engine(source_models[seed], spec, seed, ar="0.1",
                                 selection_mode="random", inference_stats_mode="batch")
            rand_acc.append(m.pseudo_label_accuracy())
        print(f"  confidence-selected {np.mean(conf_acc):.4f} vs random {np.mean(rand_acc):.4f}")
        assert float(np.mean(conf_acc)) > float(np.mean(rand_acc))


def test_criterion_8_scheduling_and_compute_share(source_models):
    with criterion(8, "exact scheduling and monotone adaptation share"):
        rates = ("0.01", "0.03", "0.05", "0.1", "0.3", "0.5", "1.0")
        for ar in rates:
            schedule = AdaptationSchedule(ar)
            fired = sum(schedule.should_adapt() for _ in range(1000))
            rate = Fraction(ar)
            assert fired == (1000 * rate.numerator) // rate.denominator

        shares = []
        for ar in rates:
            spec = continual_stream(("scale_strong",), batches_per_segment=300, batch_size=16, seed=0)
            metrics, _, _ = run_engine(source_models[0], spec, 0, ar=ar)
            shares.append(metrics.adaptation_share())
        print("  adaptation shares:", [f"{s:.3f}" for s in shares])
        assert all(b > a for a, b in zip(shares, shares[1:])), shares


def test_criterion_9_continual_shift(source_models):
    with criterion(9, "continual-shift accuracy and centroid tracking"):
        corruptions = ("scale_strong", "offset", "scale_mild")
        spec = lambda seed: continual_stream(corruptions=corruptions, batches_per_segment=50,
                                             batch_size=16, seed=seed)
        naive_accs, snap_accs = [], []
        for seed in SEEDS:
            m, _, _ = run_engine(source_models[seed], spec(seed), seed, ar="0.1",
                                 selection_mode="naive", inference_stats_mode="batch")
            naive_accs.append(m.accuracy())
            m, _, _ = run_engine(source_models[seed], spec(seed), seed, ar="0.1",
                                 selection_mode="cndrm", inference_stats_mode="iobmn")
            snap_accs.append(m.accuracy())
        print(f"  continual: snap {np.mean(snap_accs):.4f} vs naive {np.mean(naive_accs):.4f}")
        assert float(np.mean(snap_accs)) >= float(np.mean(naive_accs))

        # centroid tracking: per-batch first-layer stats drive an exact unroll
        # and a geometric-lag bound in (mean, variance) blend space
        base = source_models[0]
        model = base.clone()
        model.reset_inference_stats()
        batches = list(make_stream(spec(0)))
        stats_per_batch = [forward(model, b.x).layer_stats[0] for b in batches]
        segments = [b.segment for b in batches]

        beta = 0.9
        engine_model = base.clone()
        engine_model.reset_inference_stats()
        engine = Engine(engine_model, EngineConfig(seed=0, ar=0, beta_centroid=beta,
                                                   inference_stats_mode="batch"))
        mu = None
        segment_targets = {}
        for seg in set(segments):
            rows = [s for s, g in zip(stats_per_batch, segments) if g == seg]
            segment_targets[seg] = (np.mean([s.mean for s in rows], axis=0),
                                    np.mean([s.var for s in rows], axis=0))
        max_dev = {
            seg: max(
                np.linalg.norm(np.concatenate([s.mean - segment_targets[seg][0],
                                               s.var - segment_targets[seg][1]]))
                for s, g in zip(stats_per_batch, segments) if g == seg)
            for seg in segment_targets
        }

        entry_gap = {}
        steps_in_segment = 0
        previous_segment = None
        entry_distances, exit_distances = {}, {}
        sigma = None
        for batch, stats, seg in zip(batches, stats_per_batch, segments):
            engine.process_batch(batch.x, batch.labels, seg)
            # exact unroll of the centroid recurrence (independent
            # re-simulation; the centroid carries sigma, so the blend squares
            # it back to variance each step)
            if mu is None:
                mu, sigma = stats.mean.copy(), np.sqrt(stats.var)
            else:
                mu = (1.0 - beta) * mu + beta * stats.mean
                sigma = np.sqrt((1.0 - beta) * (sigma * sigma) + beta * stats.var)
            assert np.array_equal(engine.memory.centroid_mu, mu)
            assert np.array_equal(engine.memory.centroid_sigma, sigma)

            var = sigma * sigma
            target_mu, target_var = segment_targets[seg]
            gap = np.linalg.norm(np.concatenate([mu - target_mu, var - target_var]))
            if seg != previous_segment:
                previous_segment = seg
                steps_in_segment = 1
                entry_gap[seg] = gap
                entry_distances[seg] = wasserstein(engine.memory.centroid_mu, engine.memory.centroid_sigma,
                                                   target_mu, np.sqrt(target_var))
            else:
                steps_in_segment += 1
            bound = (1.0 - beta) ** (steps_in_segment - 1) * entry_gap[seg] + max_dev[seg]
            assert gap <= bound + 1e-9, (seg, steps_in_segment, gap, bound)
            exit_distances[seg] = wasserstein(engine.memory.centroid_mu, engine.memory.centroid_sigma,
                                              target_mu, np.sqrt(target_var))
        for seg in (1, 2):  # after a shift the centroid closes on the new segment
            assert exit_distances[seg] <= entry_distances[seg]
