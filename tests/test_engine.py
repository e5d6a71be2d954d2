import hashlib
import json
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stta import normalization
from stta.datagen import continual_stream, make_stream, single_domain_stream
from stta.engine import (
    AdaptationSchedule,
    BatchRecord,
    Engine,
    EngineConfig,
    RunMetrics,
    _config_dict,
    _config_from_dict,
)
from stta.model import default_model, forward, model_dict, pretrain
from stta.datagen import default_domain, sample_source

from bad_inputs import CASES as BAD_CASES, bad_batches
from tent_oracle import run_tent


def pretrained_model(seed=0, channels=16, blocks=3, epochs=12, lr=0.05):
    domain = default_domain(channels=channels)
    x, y = sample_source(domain, 360, seed + 100)
    model = default_model(channels=channels, blocks=blocks, seed=seed)
    pretrain(model, x, y, epochs=epochs, lr=lr, seed=seed + 200)
    return model


@pytest.fixture(scope="module")
def base_model():
    return pretrained_model()


def affine_digest(model):
    return [np.concatenate([l.gamma, l.beta]).copy() for l in model.norm_layers]


class TestSchedule:
    def test_always(self):
        s = AdaptationSchedule(1)
        assert [s.should_adapt() for _ in range(5)] == [True] * 5

    def test_half_rate_trace(self):
        s = AdaptationSchedule(0.5)
        fired = [i + 1 for i in range(10) if s.should_adapt()]
        assert fired == [2, 4, 6, 8, 10]

    def test_three_tenths(self):
        s = AdaptationSchedule("0.3")
        assert sum(s.should_adapt() for _ in range(10)) == 3

    def test_zero_rate(self):
        s = AdaptationSchedule(0)
        assert not any(s.should_adapt() for _ in range(50))

    @pytest.mark.parametrize("ar", ["0.01", "0.03", "0.05", "0.1", "0.3", "0.5", "1.0"])
    def test_exact_floor_over_long_runs(self, ar):
        s = AdaptationSchedule(ar)
        rate = Fraction(ar)
        count = 0
        for n in range(1, 1001):
            count += s.should_adapt()
            assert count == (n * rate.numerator) // rate.denominator
            assert 0 <= s.credit < 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AdaptationSchedule(1.5)
        with pytest.raises(ValueError):
            AdaptationSchedule(-0.1)


class TestEngineBasics:
    def test_rejects_empty_batch(self, base_model):
        engine = Engine(base_model.clone(), EngineConfig(ar=0))
        with pytest.raises(ValueError):
            engine.process_batch(np.zeros((0, 16, 8)))

    @pytest.mark.parametrize("field,value,named", [
        ("capacity", 0, "capacity"), ("capacity", -3, "capacity"), ("capacity", 1.5, "capacity"),
        ("capacity", True, "capacity"), ("selection_mode", "nope", "selection mode"),
        ("tau_delta", -1, "tau_delta"), ("tau_delta", float("nan"), "tau_delta"),
        ("alpha", -1.0, "alpha"), ("ema_momentum", 0.0, "ema_momentum"),
        ("ema_momentum", 1.01, "ema_momentum"), ("beta_centroid", 0.0, "beta_centroid"),
        ("inference_stats_mode", "nope", "inference stats mode"),
        ("lr", float("nan"), "lr"), ("lr", float("inf"), "lr"), ("lr", -1e-3, "lr"), ("lr", "0.1", "lr"),
        ("tau_conf", -0.1, "tau_conf"), ("tau_conf", 1.5, "tau_conf"), ("tau_conf", float("nan"), "tau_conf"),
        ("lr", True, "lr"), ("tau_conf", True, "tau_conf"), ("alpha", False, "alpha"),
        ("tau_delta", True, "tau_delta"), ("beta_centroid", True, "beta_centroid"),
        ("ema_momentum", True, "ema_momentum"), ("ar", True, "adaptation rate True"),
        ("ar", False, "adaptation rate False"),
    ])
    def test_config_rejects_bad_setting(self, field, value, named):
        with pytest.raises(ValueError, match=named):
            EngineConfig(**{field: value})

    def test_config_holds_the_exact_rate(self):
        config = EngineConfig(ar="0.5")
        assert config.ar == Fraction(1, 2) and isinstance(config.ar, Fraction)
        assert config == EngineConfig(ar=0.5) == EngineConfig(ar=Fraction(1, 2))
        assert _config_from_dict(_config_dict(config)) == EngineConfig(ar=0.5)
        assert _config_dict(EngineConfig(ar="1/3"))["ar"] == "1/3"

    def test_config_accepts_edge_settings(self):
        EngineConfig(capacity=1, tau_delta=0.0, alpha=0.0, ema_momentum=1.0, beta_centroid=1.0,
                     lr=0.0, tau_conf=0.0)
        EngineConfig(tau_conf=1.0)
        EngineConfig(capacity=None, selection_mode="naive")

    def test_empty_stream(self, base_model):
        engine = Engine(base_model.clone(), EngineConfig(ar=1))
        metrics = engine.run_stream([])
        assert metrics.total_batches == 0
        assert metrics.adapt_count == 0
        assert metrics.accuracy() is None and metrics.pseudo_label_accuracy() is None
        assert metrics.memory_occupancy() == (0.0, 0)
        assert metrics.mean_latency() is None and metrics.adaptation_share() == 0.0

    def test_memory_capacity_defaults_to_batch_size(self, base_model):
        engine = Engine(base_model.clone(), EngineConfig(ar=0))
        spec = single_domain_stream(batches=2, batch_size=12, seed=0)
        engine.run_stream(make_stream(spec))
        assert engine.memory.capacity == 12

    def test_zero_rate_matches_bn_stats_baseline(self, base_model):
        spec = single_domain_stream(corruption="noise", batches=20, batch_size=16, seed=1)
        model = base_model.clone()
        engine = Engine(model, EngineConfig(ar=0, inference_stats_mode="batch"))
        metrics = engine.run_stream(make_stream(spec))
        assert metrics.adapt_count == 0
        # direct per-batch evaluation with live batch statistics
        reference = base_model.clone()
        correct = []
        for batch in make_stream(spec):
            preds = forward(reference, batch.x).logits.argmax(axis=1)
            correct.append(int((preds == batch.labels).sum()))
        assert [r.correct for r in metrics.records] == correct

    def test_adaptation_skipped_when_memory_empty(self, base_model):
        # threshold 1.0 rejects every candidate (confidence can never exceed it)
        engine = Engine(base_model.clone(), EngineConfig(ar=1, tau_conf=1.0))
        spec = single_domain_stream(batches=5, batch_size=8, seed=2)
        metrics = engine.run_stream(make_stream(spec))
        assert metrics.adapt_count == 0
        assert metrics.skipped_adaptations == 5
        assert all(r.memory_size == 0 for r in metrics.records)

    def test_memory_norm_populates_after_first_adaptation(self, base_model):
        model = base_model.clone()
        engine = Engine(model, EngineConfig(ar=1, tau_conf=0.0))
        spec = single_domain_stream(batches=3, batch_size=8, seed=3)
        stream = list(make_stream(spec))
        assert engine._inference_source() == "batch"
        engine.process_batch(stream[0].x, stream[0].labels)
        assert all(l.memory_norm.populated for l in model.norm_layers)
        assert engine._inference_source() == "iobmn"

    def test_dead_zone_is_sized_only_at_adaptations(self, base_model, monkeypatch):
        calls = []
        sizing = normalization.sampling_variances
        monkeypatch.setattr(normalization, "sampling_variances", lambda state: calls.append(1) or sizing(state))
        model = base_model.clone()
        engine = Engine(model, EngineConfig(ar=Fraction(1, 3), tau_conf=0.0))
        served = []
        for batch in make_stream(single_domain_stream(batches=9, batch_size=8, seed=3)):
            before = len(calls)
            record = engine.process_batch(batch.x, batch.labels)
            served.append((record.adapted, len(calls) - before))
        assert served == [(False, 0), (False, 0), (True, 3)] * 3  # one sizing per norm layer per update

    def test_ema_and_frozen_modes_run(self, base_model):
        for mode in ("ema", "frozen"):
            engine = Engine(base_model.clone(), EngineConfig(ar="0.5", inference_stats_mode=mode))
            spec = single_domain_stream(batches=6, batch_size=8, seed=4)
            metrics = engine.run_stream(make_stream(spec))
            assert metrics.total_batches == 6
            acc = metrics.accuracy()
            assert acc is not None and 0.0 <= acc <= 1.0


def engine_state(engine):
    """Everything a rejected batch must leave as it was, the norm layers' memory and EMA statistics included."""
    memory = engine.memory
    return (
        None if memory is None else memory.dump(),
        None if memory is None else memory.batch().tobytes(),
        engine.schedule.credit, engine.schedule.adapt_count, engine.schedule.batch_count,
        json.dumps(model_dict(engine.model)),
        engine._arrival,
    )


class TestBatchValidation:
    @pytest.fixture(scope="class")
    def stream(self):
        spec = single_domain_stream(corruption="noise", batches=4, batch_size=8, seed=16)
        return list(make_stream(spec))

    def warmed(self, base_model, stream, mode):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=17, inference_stats_mode=mode))
        for batch in stream[:3]:
            engine.process_batch(batch.x, batch.labels)
        assert len(engine.memory) > 0 and engine.schedule.adapt_count == 1
        return engine

    def bad_batches(self, stream):
        x, labels = stream[3].x, stream[3].labels
        # Engine only: the memory holds samples of the first batch's length (8).
        return {**bad_batches(x, labels, 3), "length": (x[:, :, :5], labels)}

    CASES = [*BAD_CASES, "length"]

    # Under `ema` a forward moves the norm layers' statistics, so a label checked after it would leave a trace.
    @pytest.mark.parametrize("case,mode", [(c, "iobmn") for c in CASES] + [(c, "ema") for c in CASES],
                             ids=CASES + [f"ema {c}" for c in CASES])
    def test_rejected_batch_changes_nothing(self, base_model, stream, case, mode):
        engine = self.warmed(base_model, stream, mode)
        before = engine_state(engine)
        x, labels = self.bad_batches(stream)[case]
        with pytest.raises(ValueError, match="batch 3"):
            engine.process_batch(x, labels)
        assert engine_state(engine) == before
        engine.process_batch(stream[3].x, stream[3].labels)  # the engine still serves
        assert engine.schedule.batch_count == 4

    def test_rejected_first_batch_creates_no_memory(self, base_model, stream):
        engine = Engine(base_model.clone(), EngineConfig(ar=1))
        with pytest.raises(ValueError, match="batch 0"):
            engine.process_batch(stream[0].x, stream[0].labels[:3])
        assert engine.memory is None and engine.schedule.batch_count == 0


class TestDeterminismAndHygiene:
    def test_fixed_seed_bit_identical_metrics(self, base_model):
        spec = single_domain_stream(corruption="noise", batches=15, batch_size=8, seed=5)

        def run():
            engine = Engine(base_model.clone(), EngineConfig(ar="0.3", seed=7))
            return engine.run_stream(make_stream(spec))

        a, b = run(), run()
        assert a.deterministic_dict() == b.deterministic_dict()

    def test_label_hygiene(self, base_model):
        spec = single_domain_stream(corruption="noise", batches=12, batch_size=8, seed=6)

        def run(use_labels):
            model = base_model.clone()
            engine = Engine(model, EngineConfig(ar="0.5", seed=8))
            metrics = RunMetrics([engine.process_batch(b.x, b.labels if use_labels else None, b.segment)
                                  for b in make_stream(spec)])
            return model, engine, metrics

        model_l, engine_l, metrics_l = run(True)
        model_n, engine_n, metrics_n = run(False)
        for a, b in zip(affine_digest(model_l), affine_digest(model_n)):
            assert np.array_equal(a, b)
        assert engine_l.memory.dump() == engine_n.memory.dump()
        assert np.array_equal(engine_l.memory.centroid_mu, engine_n.memory.centroid_mu)
        assert np.array_equal(engine_l.memory.centroid_sigma, engine_n.memory.centroid_sigma)
        assert metrics_n.accuracy() is None
        assert metrics_l.accuracy() is not None
        # only metrics differ
        assert [r.adapted for r in metrics_l.records] == [r.adapted for r in metrics_n.records]


def sha256_json(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPinnedTrajectories:
    """Digests of whole runs, computed before the engine's internals moved to plain arrays."""

    CASES = {
        "snap": (
            lambda: continual_stream(("scale_strong", "noise"), batches_per_segment=20, batch_size=16, seed=22),
            lambda: EngineConfig(ar="0.1", seed=23),
            "07295b71ae655cf7e637a8cd5f4c2a9c8064c3d0408621e6b78524b730149c59",
            "cbb25d238666ce68894c5ed25fe261261dda43104f6f81f11b09360722f3d364",
        ),
        "tent-equivalent": (
            lambda: single_domain_stream(corruption="noise", batches=8, batch_size=16, seed=24),
            lambda: EngineConfig(ar=1, tau_conf=0.0, selection_mode="naive", inference_stats_mode="batch",
                                 capacity=16, seed=25),
            "4b4665a313636b02909cbc17ce814a031c902c456867089c94eb75060d382f1c",
            "60f95fd05e1d99791e9801beea05882c6b5bdd80fb5a87fd668c781cfa7cc9d7",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_state_and_metrics_pinned(self, base_model, case):
        spec, config, state_digest, metrics_digest = self.CASES[case]
        engine = Engine(base_model.clone(), config())
        metrics = engine.run_stream(make_stream(spec()))
        # the snap run adapts 4 times, rescores, and serves with shrinkage-corrected statistics
        assert metrics.adapt_count == (4 if case == "snap" else 8)
        assert sum(r.rescored > 0 for r in metrics.records) > 3
        assert sha256_json(metrics.deterministic_dict()) == metrics_digest
        assert sha256_json(engine.state_dict()) == state_digest

    def test_overflow_names_the_batch(self, base_model):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", lr=1.0e200, seed=26))
        batches = list(make_stream(single_domain_stream(corruption="noise", batches=6, batch_size=8, seed=27)))
        engine.process_batch(batches[0].x)
        engine.process_batch(batches[1].x)  # adapts; the step itself stays finite
        with pytest.raises(FloatingPointError, match="batch 2: overflow"):
            engine.process_batch(batches[2].x)


class TestResume:
    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_split_run_equals_whole_run(self, base_model, tmp_path, mode):
        spec = single_domain_stream(corruption="scale_strong", batches=20, batch_size=8, seed=9)
        batches = list(make_stream(spec))
        config = EngineConfig(ar="0.3", capacity=5, selection_mode=mode, seed=10)

        whole = Engine(base_model.clone(), config)
        metrics_whole = whole.run_stream(batches)

        first = Engine(base_model.clone(), config)
        metrics_a = first.run_stream(batches[:10])
        path = tmp_path / "engine.json"
        first.save(path)
        resumed = Engine.load(path)
        metrics_b = resumed.run_stream(batches[10:])

        combined = metrics_a.deterministic_dict()["records"] + metrics_b.deterministic_dict()["records"]
        assert combined == metrics_whole.deterministic_dict()["records"]
        assert len(whole.memory) == 5 and whole.schedule.adapt_count == 6
        assert json.dumps(resumed.state_dict()) == json.dumps(whole.state_dict())

    @pytest.mark.parametrize("edit,named", [
        (lambda p: p["schedule"].update(credit=[1, 5]),
         r"schedule\.credit 1/5 disagrees with schedule\.batch_count 7 at config\.ar 3/10 \(want 1/10\)"),
        (lambda p: p["schedule"].update(adapt_count=3),
         r"schedule\.adapt_count 3 disagrees with schedule\.batch_count 7 at config\.ar 3/10 \(want 2\)"),
        (lambda p: p["schedule"].update(batch_count=8),
         r"batch_index 7 disagrees with schedule\.batch_count 8 "),
        (lambda p: p.update(batch_index=8), r"batch_index 8 disagrees with schedule\.batch_count 7 "),
        (lambda p: p["config"].update(ar="1/2"),
         r"schedule\.adapt_count 2 disagrees with schedule\.batch_count 7 at config\.ar 1/2 \(want 3\)"),
        (lambda p: p.update(schedule={"credit": [9, 10], "adapt_count": 0, "batch_count": 0}, batch_index=0),
         r"schedule\.credit 9/10 disagrees with schedule\.batch_count 0 "),
        (lambda p: p.update(schedule={"credit": [9, 10], "adapt_count": 0, "batch_count": 0}, batch_index=10),
         r"batch_index 10 disagrees with schedule\.batch_count 0 "),
    ], ids=["credit", "adapt-count", "batch-count", "batch-index", "config-ar", "credit-at-start",
            "credit-and-batch-index"])
    def test_checkpoint_rejects_counts_that_disagree(self, base_model, edit, named):
        # Every count follows from schedule.batch_count and config.ar; one that does not is refused.
        spec = single_domain_stream(corruption="noise", batches=7, batch_size=8, seed=30)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.3", seed=31))
        engine.run_stream(make_stream(spec))
        payload = json.loads(json.dumps(engine.state_dict()))
        assert Engine.from_state_dict(payload).state_dict() == payload
        edit(payload)
        with pytest.raises(ValueError, match="^engine checkpoint: " + named):
            Engine.from_state_dict(payload)

    def test_refresh_memory_stats_key(self, base_model):
        # Older checkpoints carry the removed refresh switch: off loads, on is refused.
        spec = single_domain_stream(corruption="noise", batches=6, batch_size=8, seed=18)
        batches = list(make_stream(spec))
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=19))
        engine.run_stream(batches[:3])
        payload = json.loads(json.dumps(engine.state_dict()))
        assert "refresh_memory_stats" not in payload["config"]
        payload["config"]["refresh_memory_stats"] = False
        resumed = Engine.from_state_dict(payload)
        assert resumed.memory.dump() == engine.memory.dump()
        assert resumed.state_dict() == engine.state_dict()
        resumed.run_stream(batches[3:])
        engine.run_stream(batches[3:])
        assert resumed.memory.dump() == engine.memory.dump()
        payload["config"]["refresh_memory_stats"] = True
        with pytest.raises(ValueError, match="refresh_memory_stats"):
            Engine.from_state_dict(payload)

    def test_checkpoint_keeps_every_config_field(self, base_model, tmp_path):
        config = EngineConfig(ar="1/3", tau_conf=0.25, tau_delta=0.2, alpha=2.0, beta_centroid=0.5,
                              ema_momentum=0.7, lr=0.01, capacity=5, selection_mode="crm",
                              inference_stats_mode="ema", seed=9)
        names = [f.name for f in fields(EngineConfig)]
        assert all(getattr(config, name) != getattr(EngineConfig(), name) for name in names)
        path = tmp_path / "engine.json"
        Engine(base_model.clone(), config).save(path)
        assert list(json.loads(path.read_text())["config"]) == names
        assert Engine.load(path).config == config

    def test_checkpoint_rejects_memory_sample_that_does_not_fit(self, base_model):
        spec = single_domain_stream(corruption="noise", batches=2, batch_size=8, seed=20)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=21))
        engine.run_stream(make_stream(spec))
        payload = json.loads(json.dumps(engine.state_dict()))
        payload["memory"]["samples"][0]["confidence"] = 0.0  # below the confidence filter
        with pytest.raises(ValueError, match="checkpoint memory"):
            Engine.from_state_dict(payload)

    @pytest.mark.parametrize("field,value,named", [
        ("input", "nan", "sample {}: input must be finite"),
        ("mu", "inf", "sample {}: mu must be finite"),
        ("sigma", "nan", "sample {}: sigma must be finite"),
        ("sigma", "negative", "sample {}: sigma must be >= 0"),
        ("confidence", 1.5, "sample {}: confidence must be in [0, 1]"),
        ("confidence", math.nan, "sample {}: confidence must be in [0, 1]"),
        ("wdist", -0.5, "sample {}: wdist must be a number >= 0"),
        ("wdist", math.nan, "sample {}: wdist must be a number >= 0"),
        ("wdist", "far", "sample {}: wdist must be a number >= 0"),
        ("entropy", math.inf, "sample {}: entropy must be a finite number"),
        ("centroid.mu", "nan", "centroid.mu must be finite"),
        ("centroid.sigma", "inf", "centroid.sigma must be finite"),
        ("centroid.sigma", "negative", "centroid.sigma must be >= 0"),
    ])
    def test_checkpoint_rejects_bad_memory_values(self, base_model, field, value, named):
        spec = single_domain_stream(corruption="noise", batches=3, batch_size=8, seed=28)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=29))
        engine.run_stream(make_stream(spec))
        payload = json.loads(json.dumps(engine.state_dict()))
        sample = payload["memory"]["samples"][1]
        owner, key = ((payload["memory"]["centroid"], field.split(".")[1]) if field.startswith("centroid.")
                      else (sample, field))
        if value in ("nan", "inf", "negative"):
            flat = np.array(owner[key], dtype=float)
            flat.reshape(-1)[-1] = {"nan": math.nan, "inf": math.inf, "negative": -0.25}[value]
            value = flat.tolist()
        owner[key] = value
        with pytest.raises(ValueError, match=named.format(sample["arrival_index"]).replace("[", r"\[")):
            Engine.from_state_dict(payload)

    @staticmethod
    def _set_input(payload, index, shape):
        payload["memory"]["samples"][index]["input"] = np.zeros(shape).tolist()

    @pytest.mark.parametrize("edit,named", [
        (lambda p: p["memory"]["samples"][1].pop("mu"), r"checkpoint memory: sample \d+: mu is missing"),
        (lambda p: p["memory"]["samples"][0].pop("arrival_index"),
         r"checkpoint memory: samples\[0\]\.arrival_index is missing"),
        (lambda p: p["config"].update(bogus=1), r"engine checkpoint: config\.bogus is not an engine setting"),
        (lambda p: p["config"].update(seed="x"), r"engine checkpoint: config: seed must be an integer >= 0"),
        (lambda p: p["config"].update(ar="1/0"), r"engine checkpoint: config: adaptation rate '1/0'"),
        (lambda p: p["schedule"].update(credit=[1, 0]),
         r"engine checkpoint: schedule\.credit\[1\] must be an integer >= 1, got 0"),
        (lambda p: p["schedule"].update(credit=[3, 2]), r"engine checkpoint: schedule\.credit must be < 1"),
        (lambda p: p["schedule"].update(credit=1), r"engine checkpoint: schedule\.credit must be a"),
        (lambda p: p["schedule"].update(adapt_count=-1),
         r"engine checkpoint: schedule\.adapt_count must be an integer >= 0"),
        (lambda p: p.update(rng={}), r"engine checkpoint: rng is not a PCG64 state"),
        (lambda p: p["rng"].update(bit_generator="MT19937"), r"engine checkpoint: rng is not a PCG64 state"),
        (lambda p: p.update(batch_index="x"), r"engine checkpoint: batch_index must be an integer >= 0, got 'x'"),
        (lambda p: p.update(arrival=1.5), r"engine checkpoint: arrival must be an integer >= 0"),
        (lambda p: p.pop("memory"), r"engine checkpoint: memory is missing"),
        (lambda p: p["memory"].update(capacity=0), r"checkpoint memory: capacity must be an integer >= 1, got 0"),
        (lambda p: p["memory"].update(capacity=9),
         r"checkpoint memory: capacity 9 disagrees with config\.capacity 8"),
        (lambda p: p["memory"]["centroid"].update(initialized=1),
         r"checkpoint memory: centroid\.initialized must be true or false"),
        (lambda p: p["memory"]["centroid"].update(mu=[0.0] * 15),
         r"checkpoint memory: centroid\.mu has shape \(15,\), want \(16,\)"),
        (lambda p: p["memory"].update(samples={}), r"checkpoint memory: samples must be a list"),
        # the first sample is checked against the model, not used to size the memory
        (lambda p: TestResume._set_input(p, 0, (15, 8)),
         r"checkpoint memory: sample \d+: input has shape \(15, 8\), want in_channels x L = \(16, L >= 1\)"),
        (lambda p: TestResume._set_input(p, 0, (16 * 8,)),
         r"checkpoint memory: sample \d+: input has shape \(128,\), want in_channels x L"),
        (lambda p: TestResume._set_input(p, 0, (16, 0)),
         r"checkpoint memory: sample \d+: input has shape \(16, 0\), want in_channels x L"),
        (lambda p: TestResume._set_input(p, 1, (16, 7)),
         r"checkpoint memory: sample \d+: input has shape \(16, 7\), the samples before it \(16, 8\)"),
        (lambda p: p["memory"]["samples"][1].update(mu=[0.0] * 15),
         r"checkpoint memory: sample \d+: mu has shape \(15,\), want \(16,\)"),
        (lambda p: p["memory"]["samples"][1].update(sigma=[1.0] * 17),
         r"checkpoint memory: sample \d+: sigma has shape \(17,\), want \(16,\)"),
        (lambda p: p["memory"]["samples"][1].update(pseudo_label=3),
         r"checkpoint memory: sample \d+: pseudo_label must be an integer >= 0 and < 3, got 3"),
        (lambda p: p["memory"]["samples"][1].update(arrival_index=10 ** 6),
         r"checkpoint memory: samples\[1\]\.arrival_index must be an integer >= 0 and < 16"),
    ], ids=[
        "sample-mu-missing", "arrival-index-missing", "config-unknown-key", "config-seed-string",
        "config-ar-zero-denominator", "credit-zero-denominator", "credit-above-one",
        "credit-not-a-pair", "adapt-count-negative", "rng-empty", "rng-other-generator",
        "batch-index-string", "arrival-float", "memory-missing", "capacity-zero",
        "capacity-disagrees", "centroid-initialized-int", "centroid-mu-length",
        "samples-not-a-list", "first-input-channels", "first-input-flat",
        "first-input-empty-length", "second-input-length", "sample-mu-length",
        "sample-sigma-length", "pseudo-label-out-of-range", "arrival-index-too-late",
    ])
    def test_checkpoint_rejects_malformed_fields(self, base_model, edit, named):
        spec = single_domain_stream(corruption="noise", batches=2, batch_size=8, seed=28)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", capacity=8, seed=29))
        engine.run_stream(make_stream(spec))
        payload = json.loads(json.dumps(engine.state_dict()))
        assert len(payload["memory"]["samples"]) >= 2
        edit(payload)
        with pytest.raises(ValueError, match="^" + named):
            Engine.from_state_dict(payload)

    def test_checkpoint_rejects_a_payload_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="^engine checkpoint must be a JSON object$"):
            Engine.from_state_dict([])

    def test_checkpoint_rejects_bad_format(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError):
            Engine.load(path)


class TestTentEquivalence:
    def test_param_trajectory_bit_identical(self, base_model):
        spec = single_domain_stream(corruption="noise", batches=30, batch_size=16, seed=11)
        batches = list(make_stream(spec))

        engine_model = base_model.clone()
        engine = Engine(engine_model, EngineConfig(
            ar=1, tau_conf=0.0, selection_mode="naive",
            inference_stats_mode="batch", capacity=16, lr=1e-3))

        oracle_model = base_model.clone()
        oracle_snapshots, _ = run_tent(oracle_model, [b.x for b in batches], lr=1e-3)

        for i, batch in enumerate(batches):
            engine.process_batch(batch.x, batch.labels)
            got = affine_digest(engine_model)
            want = oracle_snapshots[i]
            for (g_got), (g_want, b_want) in zip(got, want):
                assert np.array_equal(g_got, np.concatenate([g_want, b_want])), f"batch {i}"


class TestMetricsSummaries:
    def test_segment_accuracies_and_totals(self, base_model):
        from stta.datagen import continual_stream

        spec = continual_stream(corruptions=("none", "noise"), batches_per_segment=4,
                                batch_size=8, seed=12)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5"))
        metrics = engine.run_stream(make_stream(spec))
        segs = metrics.segment_accuracies()
        assert [s for s, _ in segs] == [0, 1]
        assert all(a is not None for _, a in segs)
        assert metrics.total_samples == 64
        assert metrics.adapt_count == sum(r.adapted for r in metrics.records)
        mean_occ, final_occ = metrics.memory_occupancy()
        assert 0 < mean_occ <= 8 and 0 < final_occ <= 8

    def test_deterministic_dict_keeps_every_field_but_wall_times(self):
        record = BatchRecord(**{f.name: 0 for f in fields(BatchRecord)})
        want = [f.name for f in fields(BatchRecord) if not f.name.endswith("_seconds")]
        assert [list(r) for r in RunMetrics([record, record]).deterministic_dict()["records"]] == [want, want]

    def test_latency_split_recorded(self, base_model):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5"))
        spec = single_domain_stream(batches=6, batch_size=8, seed=13)
        metrics = engine.run_stream(make_stream(spec))
        adapted = [r for r in metrics.records if r.adapted]
        unadapted = [r for r in metrics.records if not r.adapted]
        assert adapted and unadapted
        assert all(r.adaptation_seconds > 0 for r in adapted)
        assert all(r.adaptation_seconds == 0.0 for r in unadapted)
        assert all(r.inference_seconds > 0 for r in metrics.records)
