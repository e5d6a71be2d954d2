import hashlib
import json
import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stta import cli, normalization
from stta.datagen import continual_stream, make_stream
from stta.engine import (
    AdaptationSchedule,
    BatchRecord,
    Engine,
    EngineConfig,
    RunMetrics,
    _config_dict,
    _config_from_dict,
)
from stta.memory import SELECTION_MODES, SampleMemory
from stta.model import (NORM_SOURCES, adapt_step, default_model, forward, load_model_dict, model_dict, pretrain,
                        save_model)
from stta.datagen import DomainSpec, sample_source

from bad_inputs import CASES as BAD_CASES, V1_MODEL, bad_batches
from tent_oracle import run_tent


def pretrained_model(seed=0, channels=16, blocks=3, epochs=12, lr=0.05):
    domain = DomainSpec(channels=channels)
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
        ("alpha", -1.0, "alpha"), ("ema_momentum", 0.0, "ema_momentum"),
        ("ema_momentum", 1.01, "ema_momentum"), ("beta_centroid", 0.0, "beta_centroid"),
        ("inference_stats_mode", "nope", "inference stats mode"),
        ("lr", float("nan"), "lr"), ("lr", float("inf"), "lr"), ("lr", -1e-3, "lr"), ("lr", "0.1", "lr"),
        ("tau_conf", -0.1, "tau_conf"), ("tau_conf", 1.5, "tau_conf"), ("tau_conf", float("nan"), "tau_conf"),
        ("lr", True, "lr"), ("tau_conf", True, "tau_conf"), ("alpha", False, "alpha"),
        ("beta_centroid", True, "beta_centroid"),
        ("ema_momentum", True, "ema_momentum"), ("ar", True, "adaptation rate True"),
        ("ar", False, "adaptation rate False"),
        pytest.param("ar", 10 ** 400, r"^adaptation rate 10{400} outside \[0, 1\]$", id="ar-beyond-float"),
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
        EngineConfig(capacity=1, alpha=0.0, ema_momentum=1.0, beta_centroid=1.0,
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
        spec = continual_stream(("noise",), batches_per_segment=2, batch_size=12, seed=0)
        engine.run_stream(make_stream(spec))
        assert engine.memory.capacity == 12

    @pytest.mark.parametrize("mode", [mode for mode, preset in cli.MODE_PRESETS.items() if preset.get("ar") != "0"])
    def test_an_engine_builds_only_the_statistics_it_serves_with(self, base_model, mode):
        # IoBMN statistics are built for the `iobmn` source alone, as EMA statistics are for `ema` alone.
        model = base_model.clone()
        model.reset_inference_stats()
        config = cli.engine_config_for(mode, Fraction(1), cli.DEFAULT_CONFIG["engine"], seed=0, batch_size=8)
        engine = Engine(model, config)
        spec = continual_stream(("noise",), batches_per_segment=3, batch_size=8, seed=31)
        assert engine.run_stream(make_stream(spec)).adapt_count >= 1
        source = config.inference_stats_mode
        assert [(layer.memory_norm.populated, layer.ema.stats is not None) for layer in model.norm_layers] == \
            [(source == "iobmn", source == "ema")] * len(model.norm_layers)

    def test_zero_rate_matches_bn_stats_baseline(self, base_model):
        spec = continual_stream(("noise",), batches_per_segment=20, batch_size=16, seed=1)
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
        spec = continual_stream(("noise",), batches_per_segment=5, batch_size=8, seed=2)
        metrics = engine.run_stream(make_stream(spec))
        assert metrics.adapt_count == 0
        assert metrics.skipped_adaptations == 5
        assert all(r.memory_size == 0 for r in metrics.records)

    def test_run_names_a_cell_starved_at_batch_size_one(self, base_model, tmp_path, capsys):
        """At batch size 1 the batch statistics are one sample's, its prediction stays at or below the
        default `tau_conf`, and CnDRM rejects it: the memory stays empty and every scheduled adaptation
        is skipped. Two batches at `ar` 1 are the shortest stream that starves with more than one
        adaptation skipped; `stta run` names the cell on stderr and writes its record as it would anyway."""
        checkpoint = tmp_path / "model.json"
        save_model(base_model, checkpoint)
        cfg = {"stream": {"batch_size": 1, "segments": [{"corruption": "noise", "batches": 2}]},
               "grid": {"modes": ["snap"], "ar": ["1"], "seeds": [0]}}
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--checkpoint", str(checkpoint)]) == 0
        assert capsys.readouterr().err == ("warning: snap@1 seed 0: all 2 scheduled adaptations were skipped "
                                           "(the memory stayed empty)\n")
        (record,) = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        metrics = record["metrics"]
        assert (metrics["batches"], metrics["adapt_count"], metrics["skipped_adaptations"]) == (2, 0, 2)
        assert metrics["memory_mean_occupancy"] == metrics["memory_final_occupancy"] == 0

    def test_one_value_per_channel_leaves_the_memory_statistics_unpopulated(self, base_model):
        # A memory of one sample of length 1 has no sampling variance: the step runs, IoBMN stays unpopulated.
        engine = Engine(base_model.clone(), EngineConfig(ar=1, capacity=1, tau_conf=0.0))
        record = engine.process_batch(np.random.default_rng(5).normal(size=(1, 16, 1)))
        assert record.adapted and record.memory_size == 1
        assert not any(l.memory_norm.populated for l in engine.model.norm_layers)
        assert engine._inference_source() == "batch"

    def test_memory_norm_populates_after_first_adaptation(self, base_model):
        model = base_model.clone()
        engine = Engine(model, EngineConfig(ar=1, tau_conf=0.0))
        spec = continual_stream(("noise",), batches_per_segment=3, batch_size=8, seed=3)
        stream = list(make_stream(spec))
        assert engine._inference_source() == "batch"
        engine.process_batch(stream[0].x, stream[0].labels)
        assert all(l.memory_norm.populated for l in model.norm_layers)
        assert engine._inference_source() == "iobmn"

    @staticmethod
    def sizings(base_model, monkeypatch, config):
        """(adapted, `sampling_variances` calls) per batch of a 9-batch stream."""
        calls = []
        sizing = normalization.sampling_variances
        monkeypatch.setattr(normalization, "sampling_variances", lambda state: calls.append(1) or sizing(state))
        engine = Engine(base_model.clone(), config)
        served = []
        for batch in make_stream(continual_stream(("noise",), batches_per_segment=9, batch_size=8, seed=3)):
            before = len(calls)
            record = engine.process_batch(batch.x, batch.labels)
            served.append((record.adapted, len(calls) - before))
        return served

    def test_dead_zone_is_sized_on_the_first_serve_after_each_adaptation(self, base_model, monkeypatch):
        served = self.sizings(base_model, monkeypatch, EngineConfig(ar=Fraction(1, 3), tau_conf=0.0))
        # The batch that adapts is served before its update; the next one sizes each norm layer's zone once.
        assert served == [(False, 0), (False, 0), (True, 0)] + [(False, 3), (False, 0), (True, 0)] * 2

    def test_tent_equivalent_computes_no_standard_error(self, base_model, monkeypatch):
        config = EngineConfig(ar=1, capacity=8, **cli.MODE_PRESETS["tent-equivalent"])
        assert self.sizings(base_model, monkeypatch, config) == [(True, 0)] * 9  # it never serves memory statistics

    def test_an_overflowing_dead_zone_serves_the_memory_statistics(self, monkeypatch):
        # alpha x standard error overflows to +inf: each channel serves the memory statistics as they are.
        served = []

        def spy(model, x, source="batch", record=False):
            result = forward(model, x, source, record)
            if source == "iobmn":
                held = model.clone()
                for layer, mine in zip(held.norm_layers, model.norm_layers):
                    layer.running_mean, layer.running_var = mine.memory_norm.memory_stats
                served.append((result.logits, forward(held, x, "frozen").logits))
            return result

        monkeypatch.setattr("stta.engine.forward", spy)
        engine = Engine(default_model(channels=4, blocks=1, seed=40),
                        EngineConfig(ar=1, capacity=4, tau_conf=0.0, alpha=1e308, seed=41))
        rng = np.random.default_rng(42)
        for _ in range(6):
            engine.process_batch(rng.normal(0.0, 100.0, size=(4, 4, 8)))
        assert len(served) == 5
        assert all(got.tobytes() == want.tobytes() for got, want in served)
        zone = engine.model.norm_layers[0].memory_norm._dead_zone
        assert all(np.isinf(t).any() for _, t in zone)

    def test_an_adaptation_steps_on_the_memory_in_arrival_order_and_builds_iobmn_from_it(self, base_model,
                                                                                        monkeypatch):
        steps = []
        step_on = adapt_step

        def spy(model, batch, lr):
            step = step_on(model, batch, lr)
            steps.append((batch, engine.memory.batch(), engine.memory.arrivals[engine.memory.order()], step))
            return step

        monkeypatch.setattr("stta.engine.adapt_step", spy)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", capacity=12, seed=5))
        batches = list(make_stream(continual_stream(("noise",), batches_per_segment=8, batch_size=8, seed=6)))
        seen = np.concatenate([b.x for b in batches])  # arrival indices count the stream's samples
        for b in batches:
            before = len(steps)
            record = engine.process_batch(b.x)
            assert len(steps) - before == int(record.adapted)
            if record.adapted:
                batch, held, arrivals, step = steps[-1]
                assert batch.tobytes() == held.tobytes() == seen[np.sort(arrivals)].tobytes()
                for layer, stats in zip(engine.model.norm_layers, step.layer_stats):
                    state = layer.memory_norm
                    assert (state.sample_count, state.spatial_extent) == (batch.shape[0], batch.shape[2])
                    assert state.memory_stats is stats
        assert len(steps) == 4 and len({len(batch) for batch, *_ in steps}) > 1

    def test_ema_and_frozen_modes_run(self, base_model):
        for mode in ("ema", "frozen"):
            engine = Engine(base_model.clone(), EngineConfig(ar="0.5", inference_stats_mode=mode))
            spec = continual_stream(("noise",), batches_per_segment=6, batch_size=8, seed=4)
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
        engine.schedule.batch_count,
        json.dumps(model_dict(engine.model)),
        None if memory is None else memory.next_arrival,
    )


class TestBatchValidation:
    @pytest.fixture(scope="class")
    def stream(self):
        spec = continual_stream(("noise",), batches_per_segment=4, batch_size=8, seed=16)
        return list(make_stream(spec))

    def warmed(self, base_model, stream, mode):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=17, inference_stats_mode=mode))
        adapted = sum(engine.process_batch(batch.x, batch.labels).adapted for batch in stream[:3])
        assert len(engine.memory) > 0 and adapted == 1
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

    @pytest.mark.parametrize("segment", ["a", -3, 1.5, True], ids=["string", "negative", "float", "bool"])
    def test_rejected_segment_changes_nothing(self, base_model, stream, segment):
        engine = self.warmed(base_model, stream, "iobmn")
        before = engine_state(engine)
        named = re.escape(f"batch 3: segment must be an integer >= 0, got {segment!r}")
        with pytest.raises(ValueError, match=f"^{named}$"):
            engine.process_batch(stream[3].x, stream[3].labels, segment)
        assert engine_state(engine) == before
        engine.process_batch(stream[3].x, stream[3].labels, 3)  # the engine still serves
        assert engine.schedule.batch_count == 4

    def test_a_numpy_integer_segment_is_recorded_as_a_python_int(self, base_model, stream):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=17))
        record = engine.process_batch(stream[0].x, stream[0].labels, np.int64(0))
        assert type(record.segment) is int
        json.dumps(cli.result_record("snap", Fraction(1, 2), 17, RunMetrics([record])))

    def test_rejected_first_batch_creates_no_memory(self, base_model, stream):
        engine = Engine(base_model.clone(), EngineConfig(ar=1))
        with pytest.raises(ValueError, match="batch 0"):
            engine.process_batch(stream[0].x, stream[0].labels[:3])
        assert engine.memory is None and engine.schedule.batch_count == 0


class TestDeterminismAndHygiene:
    def test_fixed_seed_bit_identical_metrics(self, base_model):
        spec = continual_stream(("noise",), batches_per_segment=15, batch_size=8, seed=5)

        def run():
            engine = Engine(base_model.clone(), EngineConfig(ar="0.3", seed=7))
            return engine.run_stream(make_stream(spec))

        a, b = run(), run()
        assert a.deterministic_dict() == b.deterministic_dict()

    def test_label_hygiene(self, base_model):
        spec = continual_stream(("noise",), batches_per_segment=12, batch_size=8, seed=6)

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
    """Digests of whole runs, computed before the engine's internals moved to plain arrays.

    The state digests are of those same states with `config.tau_delta` deleted, the key the config lost
    when CnDRM's rescoring threshold became a constant, and with the scale/shift that training on channel
    rows gives: its sums over each row round in another order than sums over batch-major arrays did. They
    are of the version-2 layout, which states the batch count once and keeps the arrival counter in the
    memory's section, with a model section that is the version-2 model checkpoint, the `Model`'s four fields.
    The `tent-equivalent` engine serves batch statistics, so it builds no IoBMN statistics: each of its norm
    entries holds `memory_norm` as the unpopulated `{stats: null, spatial_extent: 0, sample_count: 0}` it was
    built with, where it once held the last adaptation's statistics, which no batch served with.
    """

    CASES = {
        "snap": (
            lambda: continual_stream(("scale_strong", "noise"), batches_per_segment=20, batch_size=16, seed=22),
            lambda: EngineConfig(ar="0.1", seed=23),
            "2829eed4cee53fd70744d2c163251c24830412c929ec3116bf0111994d4ef63b",
            "cbb25d238666ce68894c5ed25fe261261dda43104f6f81f11b09360722f3d364",
        ),
        "tent-equivalent": (
            lambda: continual_stream(("noise",), batches_per_segment=8, batch_size=16, seed=24),
            lambda: EngineConfig(ar=1, tau_conf=0.0, selection_mode="naive", inference_stats_mode="batch",
                                 capacity=16, seed=25),
            "304c707d26c4c981d06cbbfb6f2d7c0a7d6779dd6eaf79191c8757850909c5b8",
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

    # sha256 of the bytes of every `SampleMemory.score` result on the snap case, in call order.
    SCORES_DIGEST = "9eb6a842f41705f050e9df11e1a4f53fdbe7b9fb5a12f602d3fee6918aece5bf"

    def test_every_candidate_score_pinned(self, base_model, monkeypatch):
        """Rescoring fires on every batch and overwrites each stored distance before a record or the state
        digest reads it, so only this digest sees the scores' bits. `score` reads the early statistics as the
        forward hands them out, `(B, C)` transposed views; a C-contiguous copy of them sums each distance in
        another order and moves this digest, and no other."""
        spec, config, _, _ = self.CASES["snap"]
        digest, results, score = hashlib.sha256(), [], SampleMemory.score

        def spy(memory, mu, sigma):
            results.append(score(memory, mu, sigma))
            digest.update(results[-1].tobytes())
            return results[-1]

        monkeypatch.setattr(SampleMemory, "score", spy)
        Engine(base_model.clone(), config()).run_stream(make_stream(spec()))
        assert len(results) == 40 and all(r.shape == (16,) for r in results)
        assert np.isinf(results[0]).all() and np.isfinite(np.concatenate(results[1:])).all()
        assert digest.hexdigest() == self.SCORES_DIGEST

    def test_overflow_names_the_batch(self, base_model):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", lr=1.0e200, seed=26))
        batches = list(make_stream(continual_stream(("noise",), batches_per_segment=6, batch_size=8, seed=27)))
        engine.process_batch(batches[0].x)
        engine.process_batch(batches[1].x)  # adapts; the step itself stays finite
        with pytest.raises(FloatingPointError, match="batch 2: overflow"):
            engine.process_batch(batches[2].x)


class TestResume:
    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_split_run_equals_whole_run(self, base_model, tmp_path, mode):
        spec = continual_stream(("scale_strong",), batches_per_segment=20, batch_size=8, seed=9)
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
        assert len(whole.memory) == 5 and metrics_whole.adapt_count + metrics_whole.skipped_adaptations == 6
        assert json.dumps(resumed.state_dict()) == json.dumps(whole.state_dict())

    @pytest.mark.parametrize("value", [False, True])
    def test_refresh_memory_stats_key(self, base_model, value):
        # The removed refresh switch is no engine setting: the key is refused whatever its value.
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=19))
        payload = json.loads(json.dumps(engine.state_dict()))
        assert "refresh_memory_stats" not in payload["config"]
        payload["config"]["refresh_memory_stats"] = value
        with pytest.raises(ValueError) as err:
            Engine.from_state_dict(payload)
        assert str(err.value) == "engine checkpoint: config.refresh_memory_stats is an unknown key"

    def test_a_resumed_engine_serves_with_its_configured_alpha(self, base_model):
        # The loaded model's layers were populated at alpha 4; the engine then swaps in values at its own alpha.
        batches = list(make_stream(continual_stream(("noise",), batches_per_segment=3, batch_size=8, seed=30)))
        engine = Engine(base_model.clone(), EngineConfig(ar=1, tau_conf=0.0))
        engine.run_stream(batches)
        payload = json.loads(json.dumps(engine.state_dict()))
        payload["config"]["alpha"] = 0.5
        resumed = Engine.from_state_dict(payload)
        live = forward(resumed.model, batches[-1].x).layer_stats
        for layer, old, stats in zip(resumed.model.norm_layers, engine.model.norm_layers, live):
            mn = layer.memory_norm
            fresh = normalization.MemoryNormState(0.5, mn.memory_stats, mn.spatial_extent, mn.sample_count)
            got, want = normalization.corrected_stats(mn, stats), normalization.corrected_stats(fresh, stats)
            assert got.mean.tobytes() == want.mean.tobytes() and got.var.tobytes() == want.var.tobytes()
            at_four = normalization.corrected_stats(old.memory_norm, stats)
            assert not (np.array_equal(got.mean, at_four.mean) and np.array_equal(got.var, at_four.var))

    def test_an_adapted_tent_equivalent_checkpoint_round_trips(self, base_model):
        # Serving batch statistics, it builds no IoBMN statistics: its norm entries hold the writer's
        # unpopulated `memory_norm`, which loads back to the same checkpoint.
        config = cli.engine_config_for("tent-equivalent", Fraction(1), cli.DEFAULT_CONFIG["engine"], seed=0,
                                       batch_size=8)
        engine = Engine(base_model.clone(), config)
        spec = continual_stream(("noise",), batches_per_segment=3, batch_size=8, seed=32)
        assert engine.run_stream(make_stream(spec)).adapt_count == 3
        state = engine.state_dict()
        assert [entry["memory_norm"] for entry in state["model"]["norm_layers"]] == \
            [{"stats": None, "spatial_extent": 0, "sample_count": 0}] * len(engine.model.norm_layers)
        assert json.dumps(Engine.from_state_dict(json.loads(json.dumps(state))).state_dict()) == json.dumps(state)

    def test_checkpoint_keeps_every_config_field(self, base_model, tmp_path):
        config = EngineConfig(ar="1/3", tau_conf=0.25, alpha=2.0, beta_centroid=0.5,
                              ema_momentum=0.7, lr=0.01, capacity=5, selection_mode="crm",
                              inference_stats_mode="ema", seed=9)
        names = [f.name for f in fields(EngineConfig)]
        assert all(getattr(config, name) != getattr(EngineConfig(), name) for name in names)
        path = tmp_path / "engine.json"
        Engine(base_model.clone(), config).save(path)
        assert list(json.loads(path.read_text())["config"]) == names
        assert Engine.load(path).config == config

    def test_checkpoint_rejects_memory_sample_that_does_not_fit(self, base_model):
        spec = continual_stream(("noise",), batches_per_segment=2, batch_size=8, seed=20)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=21))
        engine.run_stream(make_stream(spec))
        payload = json.loads(json.dumps(engine.state_dict()))
        payload["memory"]["samples"][0]["confidence"] = 0.0  # below the confidence filter
        with pytest.raises(ValueError, match=r"^checkpoint memory: sample \d+: confidence 0\.0 is not above "
                                             r"config\.tau_conf 0\.5$"):
            Engine.from_state_dict(payload)

    @pytest.mark.parametrize("field,value,named", [
        ("input", "nan", "sample {}: input must be finite"),
        ("mu", "inf", "sample {}: mu must be finite"),
        ("sigma", "nan", "sample {}: sigma must be finite"),
        ("sigma", "negative", "sample {}: sigma must be >= 0"),
        ("confidence", 1.5, "sample {}: confidence must be a number in [0, 1]"),
        ("confidence", math.nan, "sample {}: confidence must be a number in [0, 1]"),
        ("wdist", -0.5, "sample {}: wdist must be a number >= 0"),
        ("wdist", math.nan, "sample {}: wdist must be a number >= 0"),
        ("wdist", "far", "sample {}: wdist must be a number >= 0"),
        ("entropy", math.inf, "sample {}: entropy must be a number that is finite, got inf"),
        ("entropy", None, "sample {}: entropy must be a number that is finite, got None"),  # in every mode
        pytest.param("entropy", 10 ** 400, "sample {}: entropy must be a number that is finite, got 1000",
                     id="entropy-beyond-float"),
        ("centroid.mu", "nan", "centroid.mu must be finite"),
        ("centroid.sigma", "inf", "centroid.sigma must be finite"),
        ("centroid.sigma", "negative", "centroid.sigma must be >= 0"),
    ])
    def test_checkpoint_rejects_bad_memory_values(self, base_model, field, value, named):
        spec = continual_stream(("noise",), batches_per_segment=3, batch_size=8, seed=28)
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

    @staticmethod
    def _swap_first_samples(payload):
        samples = payload["memory"]["samples"]
        samples[0], samples[1] = samples[1], samples[0]

    @pytest.mark.parametrize("edit,named", [
        (lambda p: p["memory"]["samples"][1].pop("mu"), r"checkpoint memory: samples\[1\]\.mu is missing$"),
        (lambda p: p["memory"]["samples"][0].pop("arrival_index"),
         r"checkpoint memory: samples\[0\]\.arrival_index is missing"),
        (lambda p: p["config"].update(bogus=1), r"engine checkpoint: config\.bogus is an unknown key$"),
        (lambda p: p["config"].update(tau_delta=0.1), r"engine checkpoint: config\.tau_delta is an unknown key$"),
        (lambda p: p["config"].pop("alpha"), r"engine checkpoint: config\.alpha is missing$"),
        (lambda p: p["config"].update(seed="x"), r"engine checkpoint: config: seed must be an integer >= 0"),
        (lambda p: p["config"].update(ar="1/0"), r"engine checkpoint: config: adaptation rate '1/0'"),
        (lambda p: p["config"].update(ar=10 ** 400), r"engine checkpoint: config: adaptation rate 10{400} outside"),
        (lambda p: p.update(rng={}), r"engine checkpoint: rng is not a PCG64 state"),
        (lambda p: p["rng"].update(bit_generator="MT19937"), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.bit_generator must be \"PCG64\", got 'MT19937'\)$"),
        (lambda p: p["rng"].update(bit_generator=None), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.bit_generator must be \"PCG64\", got None\)$"),
        (lambda p: p["rng"].update(bit_generator=1), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.bit_generator must be \"PCG64\", got 1\)$"),
        (lambda p: p["rng"].update(bogus=1),
         r"engine checkpoint: rng is not a PCG64 state \(ValueError: rng\.bogus is an unknown key\)$"),
        (lambda p: p["rng"]["state"].update(bogus=1),
         r"engine checkpoint: rng is not a PCG64 state \(ValueError: rng\.state\.bogus is an unknown key\)$"),
        (lambda p: p["rng"]["state"].update(inc=-1),
         r"engine checkpoint: rng is not a PCG64 state \(ValueError: rng\.state\.inc must be an integer >= 0"),
        (lambda p: p["rng"].update(has_uint32=2.5), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.has_uint32 must be an integer >= 0 and < 2, got 2\.5\)$"),
        (lambda p: p["rng"].update(has_uint32=7), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.has_uint32 must be an integer >= 0 and < 2, got 7\)$"),
        (lambda p: p["rng"].update(has_uint32=True), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.has_uint32 must be an integer >= 0 and < 2, got True\)$"),
        (lambda p: p["rng"].update(uinteger=2.5), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.uinteger must be an integer >= 0 and < 4294967296, got 2\.5\)$"),
        (lambda p: p["rng"].update(uinteger=-1), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.uinteger must be an integer >= 0 and < 4294967296, got -1\)$"),
        (lambda p: p["rng"].update(uinteger=2**32), r"engine checkpoint: rng is not a PCG64 state "
         r"\(ValueError: rng\.uinteger must be an integer >= 0 and < 4294967296, got 4294967296\)$"),
        (lambda p: p.update(version=1), r"unsupported engine checkpoint version 1$"),
        (lambda p: p.update(model=V1_MODEL), r"unsupported model checkpoint version 1$"),
        (lambda p: p.update(batch_count="x"), r"engine checkpoint: batch_count must be an integer >= 0, got 'x'$"),
        (lambda p: p.pop("batch_count"), r"engine checkpoint: batch_count is missing$"),
        (lambda p: p.update(batch_count=-1), r"engine checkpoint: batch_count must be an integer >= 0, got -1$"),
        (lambda p: p.update(batch_count=True),
         r"engine checkpoint: batch_count must be an integer >= 0, got True$"),
        (lambda p: p["memory"].update(next_arrival=1.5),
         r"checkpoint memory: next_arrival must be an integer >= 0 and < 9223372036854775808, got 1\.5$"),
        (lambda p: p["memory"].update(next_arrival=2**70), r"checkpoint memory: next_arrival must be an integer "
         r">= 0 and < 9223372036854775808, got 1180591620717411303424$"),
        (lambda p: p["memory"].pop("next_arrival"), r"checkpoint memory: next_arrival is missing$"),
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
        (lambda p: p["memory"]["samples"][-1].update(arrival_index=10 ** 6),
         r"checkpoint memory: next_arrival must be above the last sample's arrival_index 1000000, got 16$"),
        (lambda p: p["memory"]["samples"][1].update(arrival_index=10 ** 400),
         r"checkpoint memory: samples\[1\]\.arrival_index must be an integer >= 0 and < 9223372036854775808"),
        (lambda p: TestResume._swap_first_samples(p),
         r"checkpoint memory: samples\[1\]\.arrival_index \d+ does not follow samples\[0\]'s \d+; "
         r"samples go in arrival order$"),
    ], ids=[
        "sample-mu-missing", "arrival-index-missing", "config-unknown-key", "config-rescore-threshold",
        "config-alpha-missing", "config-seed-string",
        "config-ar-zero-denominator", "config-ar-beyond-float", "rng-empty", "rng-other-generator",
        "rng-null-generator", "rng-numeric-generator", "rng-unknown-key",
        "rng-state-unknown-key", "rng-negative-inc", "rng-has-uint32-float", "rng-has-uint32-seven",
        "rng-has-uint32-bool", "rng-uinteger-float", "rng-uinteger-negative", "rng-uinteger-too-large",
        "version-one", "model-version-one",
        "batch-count-string", "batch-count-missing", "batch-count-negative", "batch-count-bool",
        "next-arrival-float", "next-arrival-beyond-int64", "next-arrival-missing",
        "memory-missing", "capacity-zero",
        "capacity-disagrees", "centroid-initialized-int", "centroid-mu-length",
        "samples-not-a-list", "first-input-channels", "first-input-flat",
        "first-input-empty-length", "second-input-length", "sample-mu-length",
        "sample-sigma-length", "pseudo-label-out-of-range", "arrival-index-too-late", "arrival-index-beyond-int64",
        "samples-out-of-order",
    ])
    def test_checkpoint_rejects_malformed_fields(self, base_model, edit, named):
        spec = continual_stream(("noise",), batches_per_segment=2, batch_size=8, seed=28)
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", capacity=8, seed=29))
        engine.run_stream(make_stream(spec))
        payload = json.loads(json.dumps(engine.state_dict()))
        assert len(payload["memory"]["samples"]) >= 2
        edit(payload)
        with pytest.raises(ValueError, match="^" + named):
            Engine.from_state_dict(payload)

    @pytest.mark.parametrize("path,named", [
        ((), "engine checkpoint: bogus"),
        (("config",), "engine checkpoint: config.bogus"),
        (("model",), "model checkpoint: bogus"),
        (("model", "norm_layers", 1, "memory_norm"), "model checkpoint: norm_layers[1].memory_norm.bogus"),
        (("memory",), "checkpoint memory: bogus"),
        (("memory", "centroid"), "checkpoint memory: centroid.bogus"),
        (("memory", "samples", 0), "checkpoint memory: samples[0].bogus"),
        (("memory", "samples", 1), "checkpoint memory: samples[1].bogus"),
    ], ids=["top", "config", "model", "memory-norm", "memory", "centroid", "first-sample", "second-sample"])
    def test_checkpoint_rejects_an_unknown_key_at_every_level(self, base_model, path, named):
        engine = Engine(base_model.clone(), EngineConfig(ar="0.5", seed=29))
        engine.run_stream(make_stream(continual_stream(("noise",), batches_per_segment=2, batch_size=8, seed=28)))
        payload = json.loads(json.dumps(engine.state_dict()))
        owner = payload
        for key in path:
            owner = owner[key]
        owner["bogus"] = 1
        with pytest.raises(ValueError) as err:
            Engine.from_state_dict(payload)
        assert str(err.value) == f"{named} is an unknown key"

    def test_checkpoint_without_a_memory_has_seen_no_sample(self, base_model):
        # The memory is made by the first batch, so a fresh engine's checkpoint has a null memory.
        payload = json.loads(json.dumps(Engine(base_model.clone(), EngineConfig(seed=3)).state_dict()))
        assert (payload["memory"], payload["batch_count"]) == (None, 0)
        assert Engine.from_state_dict(payload).state_dict() == payload

    def test_checkpoint_states_each_value_once(self):
        engine = Engine(default_model(), EngineConfig())
        engine.process_batch(np.zeros((4, 16, 8)))
        payload = engine.state_dict()
        assert list(payload) == ["format", "version", "config", "model", "batch_count", "memory", "rng"]
        assert list(payload["memory"]) == ["capacity", "next_arrival", "samples", "centroid"]
        assert (payload["version"], payload["batch_count"], payload["memory"]["next_arrival"]) == (2, 1, 4)

    def test_checkpoint_rejects_a_payload_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="^engine checkpoint must be a JSON object$"):
            Engine.from_state_dict([])

    def test_checkpoint_rejects_bad_format(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError):
            Engine.load(path)


DELETE = "<delete the key>"
CHECKPOINT_EDITS = (DELETE, None, "x", True, -1, 0, 1, 2.5, 1e300, [], {}, "inf")
# How the reader's messages name each section (by its key in the checkpoint), and the keys they name in words:
# a wrong format is "not a" checkpoint of its kind.
SECTION_NAMES = {"config": "config", "model": "model checkpoint", "memory": "checkpoint memory", "rng": "rng"}
KEY_WORDS = {"ar": "adaptation rate", "format": "not a"}
# Keys whose values load in another JSON kind: a rate may be a number, a null capacity is the batch size, and
# "inf" marks an unscored sample's wdist.
RETYPED_KEYS = ("ar", "capacity", "wdist")


def key_patterns(node, path=()):
    """Every object and leaf path of a checkpoint, with `int` for each list position."""
    if isinstance(node, list) and node:
        for item in node:
            yield from key_patterns(item, path + (int,))
        return
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from key_patterns(value, path + (key,))


def names_the_path(path, message):
    section = SECTION_NAMES.get(path[0], "engine checkpoint") if len(path) > 1 else "engine checkpoint"
    key = [k for k in path if isinstance(k, str)][-1]
    return section in message and (key in message or KEY_WORDS.get(key, key.replace("_", " ")) in message)


def keeps_its_kind(path, before, after):
    """Whether a loaded edit keeps the JSON kind of the value it replaced; arrays of numbers also take bools."""
    kind = lambda value: "number" if type(value) in (int, float) else type(value).__name__
    return (kind(after) == kind(before) or path[-1] in RETYPED_KEYS
            or (isinstance(path[-1], int) and kind(after) == "bool" and kind(before) == "number"))


def as_rate(state):
    return dict(state, config=dict(state["config"], ar=Fraction(state["config"]["ar"])))


def dotted_path(path):
    """A key path as the readers write it, up to its last key.

    ("norm_layers", 0, "gamma", 3) is written norm_layers[0].gamma.
    """
    keys = path[:max(i for i, key in enumerate(path) if isinstance(key, str)) + 1]
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)[1:]


def drawn_edit(data, text, patterns):
    """One edit of the checkpoint JSON `text`, drawn from its key `patterns`: the edited payload, the edited key
    path, the value found there and the edit (DELETE or a new value; None when a key was added to an object)."""
    payload = json.loads(text)
    path, parent, node, edit = [], None, payload, None
    for key in data.draw(st.sampled_from(patterns), label="key path"):
        path.append(data.draw(st.integers(0, len(node) - 1), label="position") if key is int else key)
        parent, node = node, node[path[-1]]
    if isinstance(node, dict):
        node["bogus"] = 1
        path.append("bogus")
    elif (edit := data.draw(st.sampled_from(CHECKPOINT_EDITS), label="edit")) == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = edit
    return payload, tuple(path), node, edit


class TestCheckpointEdits:
    """Every engine checkpoint leaf is refused by its path or loaded exactly.

    Hypothesis picks the checkpoint of one mode preset, then one of its key paths: a leaf, or an object. At a
    leaf it makes one edit: delete the key, or write one of eleven values. At an object it adds an unknown key.
    Loading the edited payload either raises a ValueError that names the section and the key, or gives an engine
    whose `state_dict()` equals the payload, with `config.ar` compared as a rate (0 is written back as "0/1").
    A value that loads keeps the JSON kind of the one it replaced, outside `RETYPED_KEYS`: a reader that takes
    "x" for a bool and writes it back unchanged is caught there.
    """

    @pytest.fixture(scope="class")
    def checkpoints(self, base_model):
        """Mode -> (checkpoint JSON after 6 batches at capacity 4, its key paths)."""
        out = {}
        for mode in ("snap", "tent-equivalent", "ema", "crm"):
            config = cli.engine_config_for(mode, Fraction(1, 2), dict(cli.DEFAULT_CONFIG["engine"], capacity=4),
                                           seed=1, batch_size=4)
            engine = Engine(base_model.clone(), config)
            engine.run_stream(make_stream(continual_stream(("noise",), batches_per_segment=6, batch_size=4, seed=2)))
            state = engine.state_dict()
            out[mode] = json.dumps(state), list(dict.fromkeys(key_patterns(state)))
        return out

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_an_edited_checkpoint_is_refused_by_its_path_or_loaded_exactly(self, checkpoints, data):
        payload, path, node, edit = drawn_edit(
            data, *checkpoints[data.draw(st.sampled_from(sorted(checkpoints)), label="mode")])
        try:
            loaded = Engine.from_state_dict(json.loads(json.dumps(payload))).state_dict()
        except ValueError as exc:
            assert names_the_path(path, str(exc)), str(exc)
        else:
            assert as_rate(loaded) == as_rate(payload)
            assert isinstance(node, dict) or edit == DELETE or keeps_its_kind(path, node, edit)


class TestModelCheckpointEdits:
    """Every model checkpoint leaf is refused by its path or loaded exactly.

    `TestCheckpointEdits`'s edits, over `load_model_dict`: a ValueError names the `model checkpoint` section
    and the key, or the loaded model's `model_dict` equals the payload and keeps each edited value's JSON kind.
    The model reader names each key by its dotted path (`norm_layers[0].memory_norm.spatial_extent`), so a
    refusal must state the edited key's path up to its last key; only a wrong `format` is "not a" checkpoint.
    The payloads are a default model, the pretrained model, and the pretrained model after a `snap` stream
    and then an `ema` stream, so that every norm layer holds IoBMN and EMA statistics. The draws are
    derandomized: every run tries the same 600 edits, and among them each `checked_*` call of
    `model._norm_layer_from` has an edit that fails the property when that call is deleted.
    """

    @pytest.fixture(scope="class")
    def model_checkpoints(self, base_model):
        """Model -> (its checkpoint JSON, its key paths)."""
        served = base_model.clone()
        for mode in ("snap", "ema"):
            config = cli.engine_config_for(mode, Fraction(1), dict(cli.DEFAULT_CONFIG["engine"], capacity=4),
                                           seed=1, batch_size=4)
            Engine(served, config).run_stream(
                make_stream(continual_stream(("noise",), batches_per_segment=3, batch_size=4, seed=2)))
        assert all(layer.memory_norm.memory_stats is not None and layer.ema.stats is not None
                   for layer in served.norm_layers)
        out = {}
        for name, model in (("default", default_model()), ("pretrained", base_model), ("served", served)):
            payload = model_dict(model)
            out[name] = json.dumps(payload), list(dict.fromkeys(key_patterns(payload)))
        return out

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_an_edited_model_checkpoint_is_refused_by_its_path_or_loaded_exactly(self, model_checkpoints, data):
        payload, path, node, edit = drawn_edit(
            data, *model_checkpoints[data.draw(st.sampled_from(sorted(model_checkpoints)), label="model")])
        try:
            loaded = model_dict(load_model_dict(json.loads(json.dumps(payload))))
        except ValueError as exc:
            assert names_the_path(("model", *path), str(exc)), str(exc)
            assert path == ("format",) or dotted_path(path) in str(exc), str(exc)
        else:
            assert loaded == payload
            assert isinstance(node, dict) or edit == DELETE or keeps_its_kind(path, node, edit)


class TestStreamProperties:
    """Invariants of any engine config on any short stream, the checkpoint split included."""

    @settings(max_examples=40, deadline=None)
    @given(selection_mode=st.sampled_from(SELECTION_MODES), source=st.sampled_from(NORM_SOURCES),
           capacity=st.none() | st.integers(1, 20), ar=st.fractions(0, 1, max_denominator=7),
           tau_conf=st.sampled_from([0.0, 0.5, 0.9]), batch_size=st.sampled_from([1, 2, 3, 16]),
           batches=st.integers(1, 8), split=st.floats(0, 1), seed=st.integers(0, 3))
    def test_capacity_schedule_and_split_resume(self, base_model, selection_mode, source, capacity, ar,
                                                tau_conf, batch_size, batches, split, seed):
        config = EngineConfig(ar=ar, tau_conf=tau_conf, capacity=capacity, selection_mode=selection_mode,
                              inference_stats_mode=source, seed=seed)
        spec = continual_stream(("noise",), batches_per_segment=batches, batch_size=batch_size, seed=seed)
        stream = list(make_stream(spec))
        whole = Engine(base_model.clone(), config)
        metrics = whole.run_stream(stream)
        assert all(r.memory_size <= (capacity or batch_size) for r in metrics.records)
        assert metrics.adapt_count + metrics.skipped_adaptations == batches * ar.numerator // ar.denominator

        at = round(split * batches)
        first = Engine(base_model.clone(), config)
        records = first.run_stream(stream[:at]).deterministic_dict()["records"]
        payload = json.loads(json.dumps(first.state_dict()))
        resumed = Engine.from_state_dict(payload)
        assert json.dumps(resumed.state_dict()) == json.dumps(payload)
        records += resumed.run_stream(stream[at:]).deterministic_dict()["records"]
        assert records == metrics.deterministic_dict()["records"]
        assert json.dumps(resumed.state_dict()) == json.dumps(whole.state_dict())


class TestTentEquivalence:
    def test_param_trajectory_bit_identical(self, base_model):
        spec = continual_stream(("noise",), batches_per_segment=30, batch_size=16, seed=11)
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
        spec = continual_stream(("noise",), batches_per_segment=6, batch_size=8, seed=13)
        metrics = engine.run_stream(make_stream(spec))
        adapted = [r for r in metrics.records if r.adapted]
        unadapted = [r for r in metrics.records if not r.adapted]
        assert adapted and unadapted
        assert all(r.adaptation_seconds > 0 for r in adapted)
        assert all(r.adaptation_seconds == 0.0 for r in unadapted)
        assert all(r.inference_seconds > 0 for r in metrics.records)
