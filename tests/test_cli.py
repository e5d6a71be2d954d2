import csv
import json
import os
import threading

import numpy as np
import pytest
import yaml

from stta import cli
from stta.cli import main
from stta.model import default_model, model_dict, save_model

from tent_oracle import run_tent


def tiny_config(**overrides):
    cfg = {
        "stream": {
            "batch_size": 8,
            "segments": [{"domain": {"channels": 8}, "corruption": "noise", "batches": 6}],
        },
        "pretrain": {"samples": 120, "epochs": 4, "lr": 0.05, "batch_size": 32, "blocks": 2},
        "grid": {"modes": ["snap"], "ar": ["0.5"], "seeds": [0]},
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_records(out_dir):
    with open(os.path.join(out_dir, "results.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def result_line(mode, ar, accuracy, seconds):
    """One results.jsonl line holding the fields `compare` reads."""
    return json.dumps({"schema": 1, "cell": f"{mode}@{ar}", "mode": mode, "ar": ar, "seed": 0,
                       "metrics": {"accuracy": accuracy}, "timing": {"mean_batch_seconds": seconds}}) + "\n"


def strip_timing(records):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("timing", None)
        out.append(rec)
    return out


class TestRun:
    def test_basic_run_writes_results(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        records = read_records(out)
        assert len(records) == 1
        rec = records[0]
        assert rec["schema"] == 1
        assert rec["cell"] == "snap@1/2"
        assert rec["metrics"]["accuracy"] is not None
        assert rec["metrics"]["adapt_count"] == 3
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_ar_zero_reports_zero_adaptations(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(grid={
            "modes": ["bn-stats"], "ar": ["0.5"], "seeds": [0]}))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        rec = read_records(out)[0]
        assert rec["ar"] == "0"
        assert rec["metrics"]["adapt_count"] == 0

    def test_identical_runs_byte_identical_minus_timing(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(grid={
            "modes": ["snap", "naive"], "ar": ["0.5"], "seeds": [0, 1]}))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg_path, "--out", out_a]) == 0
        assert main(["run", "--config", cfg_path, "--out", out_b]) == 0
        a = [json.dumps(r, sort_keys=True) for r in strip_timing(read_records(out_a))]
        b = [json.dumps(r, sort_keys=True) for r in strip_timing(read_records(out_b))]
        assert a == b

    def test_parallel_workers_same_results(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(grid={
            "modes": ["snap", "naive", "crm"], "ar": ["0.5"], "seeds": [0, 1]}))
        out_a, out_b = str(tmp_path / "w1"), str(tmp_path / "w4")
        assert main(["run", "--config", cfg_path, "--out", out_a, "--workers", "1"]) == 0
        assert main(["run", "--config", cfg_path, "--out", out_b, "--workers", "4"]) == 0
        a = [json.dumps(r, sort_keys=True) for r in strip_timing(read_records(out_a))]
        b = [json.dumps(r, sort_keys=True) for r in strip_timing(read_records(out_b))]
        assert a == b

    def test_cells_run_in_order_on_the_main_thread(self, tmp_path, monkeypatch):
        # Recorded batch latencies are only the cell's own if no other cell runs beside it.
        calls = []
        run_cell = cli.run_cell

        def recording(mode, config, stream, base_model):
            assert stream.seed == config.seed
            calls.append((threading.current_thread(), mode, str(config.ar), config.seed))
            return run_cell(mode, config, stream, base_model)

        monkeypatch.setattr(cli, "run_cell", recording)
        cfg_path = write_config(tmp_path, tiny_config(grid={
            "modes": ["snap", "naive"], "ar": ["0.5", "1"], "seeds": [0, 1]}))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--workers", "2"]) == 0
        assert all(thread is threading.main_thread() for thread, *_ in calls)
        assert [call[1:] for call in calls] == [(mode, ar, seed) for mode in ("snap", "naive")
                                                for ar in ("1/2", "1") for seed in (0, 1)]

    def test_failed_write_keeps_the_previous_results(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ("results.jsonl", "summary.csv")}

        def failing(records):
            raise RuntimeError("summary failed")

        monkeypatch.setattr(cli, "summarize", failing)
        with pytest.raises(RuntimeError, match="summary failed"):
            main(["run", "--config", cfg_path, "--out", str(out)])
        assert sorted(os.listdir(out)) == sorted(before)  # no temp file left behind
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("flags", [[], ["--save-model"]], ids=["results", "save-model"])
    def test_out_dir_that_cannot_be_made_exits_one_before_any_cell(self, tmp_path, capsys, monkeypatch, flags):
        ran = []
        monkeypatch.setattr(cli, "run_cell", lambda *a: ran.append(a))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["run", "--config", write_config(tmp_path, tiny_config()), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {out}: Not a directory\n"
        assert not ran

    def test_failed_final_write_exits_three(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        run_cell = cli.run_cell

        def then_replace_out_by_a_file(*args):
            record = run_cell(*args)
            os.rmdir(out)
            out.write_text("")
            return record

        monkeypatch.setattr(cli, "run_cell", then_replace_out_by_a_file)
        assert main(["run", "--config", write_config(tmp_path, tiny_config()), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {out / 'results.jsonl.tmp'}: Not a directory\n" and not captured.out

    def test_flag_overrides_beat_config(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out,
                     "--mode", "naive", "--ar", "1", "--seeds", "2"]) == 0
        records = read_records(out)
        assert len(records) == 1
        assert records[0]["cell"] == "naive@1"
        assert records[0]["seed"] == 2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, tiny_config())
        env_dir = str(tmp_path / "env_out")
        monkeypatch.setenv(cli.OUT_DIR_ENV, env_dir)
        assert main(["run", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(env_dir, "results.jsonl"))

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"unknown_key": 1})
        assert main(["run", "--config", cfg_path]) == 1
        assert "unknown_key" in capsys.readouterr().err

    def test_missing_config_exits_one(self):
        assert main(["run", "--config", "/nonexistent.yaml"]) == 1

    def test_bad_mode_exits_one(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(grid={
            "modes": ["bogus"], "ar": ["0.5"], "seeds": [0]}))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1

    def test_bad_domain_key_exits_one(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["stream"]["segments"][0]["domain"] = {"channnels": 8}  # typo
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert "channnels" in capsys.readouterr().err

    def test_bad_corruption_preset_exits_one(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["stream"]["segments"][0]["corruption"] = "fog"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ("error: stream.segments[0].corruption: unknown corruption preset 'fog' "
                                           "(have noise, none, offset, permute, scale_mild, scale_strong)\n")

    def test_threshold_failure_exits_two(self, tmp_path, capsys):
        cfg = tiny_config(thresholds={"snap@0.5": 1.01})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("thresholds,named", [
        ({"snap@abc": 0.5}, "snap@abc"),
        ({"snap": 0.5}, "'snap'"),
        ({"fast@0.5": 0.5}, "fast@0.5"),
        ({"snap@3/2": 0.5}, "snap@3/2"),
        ({"snap@0.5": "high"}, "snap@0.5"),
        ({"snap@0.5": None}, "snap@0.5"),
    ], ids=["bad-rate", "no-rate", "bad-mode", "rate-above-one", "text-minimum", "null-minimum"])
    def test_bad_threshold_exits_one_before_any_work(self, tmp_path, capsys, thresholds, named):
        cfg_path = write_config(tmp_path, tiny_config(thresholds=thresholds))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: threshold") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("engine_cfg,named", [
        ({"capacity": 0}, "capacity"),
        ({"capacity": 2.5}, "capacity"),
        ({"tau_delta": -1}, "tau_delta"),
        ({"alpha": -0.5}, "alpha"),
        ({"ema_momentum": 0.0}, "ema_momentum"),
        ({"ema_momentum": 1.5}, "ema_momentum"),
        ({"beta_centroid": "high"}, "beta_centroid"),
        ({"lr": float("nan")}, "lr"),
        ({"lr": -0.01}, "lr"),
        ({"tau_conf": 1.5}, "tau_conf"),
    ], ids=["zero-capacity", "fractional-capacity", "negative-tau-delta", "negative-alpha",
            "zero-momentum", "momentum-above-one", "text-beta", "nan-lr", "negative-lr",
            "tau-conf-above-one"])
    def test_bad_engine_key_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        engine_cfg, named):
        prepared = []
        monkeypatch.setattr(cli, "prepare_model", lambda *a: prepared.append(a))
        cfg_path = write_config(tmp_path, tiny_config(engine=engine_cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: engine: ") and named in err
        assert not prepared and not out.exists()

    @pytest.mark.parametrize("overrides,flags,named", [
        ({"pretrain": {"lr": float("nan")}}, [], "pretrain.lr"),
        ({"pretrain": {"lr": 0.0}}, [], "pretrain.lr"),
        ({"pretrain": {"lr": "fast"}}, [], "pretrain.lr"),
        ({"pretrain": {"batch_size": 0}}, [], "pretrain.batch_size"),
        ({"pretrain": {"samples": 0}}, [], "pretrain.samples"),
        ({"pretrain": {"samples": 2}}, [],
         "pretrain.samples must be >= 3, the stream's class count (one sample per class), got 2"),
        ({"pretrain": {"epochs": 2.5}}, [], "pretrain.epochs"),
        ({"pretrain": {"blocks": -1}}, [], "pretrain.blocks"),
        ({}, ["--workers", "-1"], "--workers"),
        ({}, ["--workers", "0"], "--workers"),
        ({}, ["--ar", ","], "grid.ar"),
        ({}, ["--seeds", ","], "grid.seeds"),
        ({}, ["--seeds", "0,x"], "--seeds must be comma-separated integers, got '0,x'"),
        ({"grid": {"seeds": ["a"]}}, [], "grid.seeds[0] must be an integer >= 0, got 'a'"),
        ({"grid": {"seeds": [-1]}}, [], "grid.seeds[0] must be an integer >= 0, got -1"),
        ({"grid": {"seeds": [0, 0]}}, [], "grid.seeds[1]: seed 0 is already in the grid"),
        ({"grid": {"seeds": 5}}, [], "grid.seeds must be a list, got 5"),
        ({"grid": {"ar": 0.1}}, [], "grid.ar must be a list, got 0.1"),
        ({"grid": {"ar": ["fast"]}}, [], "grid.ar[0]: adaptation rate 'fast' is not a number"),
        ({"grid": {"modes": "snap"}}, [], "grid.modes must be a list, got 'snap'"),
        ({"grid": 5}, [], "grid must be a mapping, got 5"),
        ({"grid": {"ar": [True]}}, [], "grid.ar[0]: adaptation rate True is not a number"),
        ({"out_dir": 5}, [], "out_dir must be a string or null, got 5"),
        ({"stream": {"segments": 5}}, [], "stream.segments must be a list, got 5"),
        ({"stream": {"segments": [5]}}, [], "stream.segments[0] must be a mapping, got 5"),
        ({"stream": {"segments": []}}, [], "stream.segments must hold at least one segment"),
        ({"stream": {"segments": [{"batches": 2, "domain": 5}]}}, [],
         "stream.segments[0].domain must be a mapping, got 5"),
        ({"stream": {"segments": [{"batches": 2, "corruptoin": "noise"}]}}, [],
         "unknown config key: stream.segments[0].corruptoin"),
        ({"stream": {"segments": [{"corruption": "noise"}]}}, [], "stream.segments[0].batches is missing"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"channels": "x"}}]}}, [],
         "stream.segments[0].domain.channels must be an integer >= 1, got 'x'"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"length": 2.5}}]}}, [],
         "stream.segments[0].domain.length must be an integer >= 1, got 2.5"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"length": 0}}]}}, [],
         "stream.segments[0].domain.length must be an integer >= 1, got 0"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"separation": "a"}}]}}, [],
         "stream.segments[0].domain.separation must be a number >= 0 and finite, got 'a'"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"num_classes": 1}}]}}, [],
         "stream.segments[0].domain.num_classes must be an integer >= 2, got 1"),
        ({"stream": {"segments": [{"batches": 2, "corruption": {"permute": "false"}}]}}, [],
         "stream.segments[0].corruption.permute must be true or false, got 'false'"),
        ({"stream": {"segments": [{"batches": 2, "corruption": {"noise": True}}]}}, [],
         "stream.segments[0].corruption.noise must be a number >= 0 and finite, got True"),
        ({"stream": {"segments": [{"batches": 2, "corruption": {"scale": "a"}}]}}, [],
         "stream.segments[0].corruption.scale must be a number that is finite, got 'a'"),
        ({"stream": {"segments": [{"batches": 2, "corruption": {"blur": 1}}]}}, [],
         "unknown config key: stream.segments[0].corruption.blur"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"channels": 8}},
                                  {"batches": 2, "domain": {"channels": 8, "length": 4}}]}}, [],
         "stream.segments[1].domain has 3 classes of 8 x 4 samples, segments[0].domain 3 classes of 8 x 8"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"channels": 8}},
                                  {"batches": 2, "domain": {"channels": 16}}]}}, [],
         "stream.segments[1].domain has 3 classes of 16 x 8 samples, segments[0].domain 3 classes of 8 x 8"),
        ({"stream": {"segments": [{"batches": 2, "domain": {"channels": 8}},
                                  {"batches": 2, "domain": {"channels": 8, "num_classes": 6}}]}}, [],
         "stream.segments[1].domain has 6 classes of 8 x 8 samples, segments[0].domain 3 classes of 8 x 8"),
    ], ids=["nan-lr", "zero-lr", "text-lr", "zero-batch-size", "zero-samples", "fewer-samples-than-classes",
            "fractional-epochs", "negative-blocks", "negative-workers", "zero-workers", "no-rates", "no-seeds",
            "text-seed-flag", "text-seed", "negative-seed", "repeated-seed", "scalar-seeds", "scalar-rates",
            "text-rate", "text-modes", "scalar-grid", "bool-rate", "number-out-dir", "scalar-segments",
            "scalar-segment", "no-segments", "scalar-domain", "unknown-segment-key", "no-batches",
            "text-channels", "fractional-length", "zero-length", "text-separation", "one-class",
            "text-permute", "bool-noise", "text-scale", "unknown-corruption-key", "length-changes",
            "channels-change", "classes-change"])
    def test_bad_run_setting_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       overrides, flags, named):
        prepared = []
        monkeypatch.setattr(cli, "prepare_model", lambda *a: prepared.append(a))
        cfg = tiny_config()
        for section, values in overrides.items():
            cfg[section] = {**cfg[section], **values} if isinstance(values, dict) else values
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not prepared and not out.exists()

    @pytest.mark.parametrize("section,key,value,named", [
        ("engine", "lr", "fast", "engine: lr must be a number, got 'fast'"),
        ("engine", "tau_delta", "1e-3x", "engine: tau_delta must be a number, got '1e-3x'"),
        ("engine", "alpha", True, "engine: alpha must be a number, got True"),
        ("engine", "ema_momentum", False, "engine: ema_momentum must be a number, got False"),
        ("pretrain", "lr", True, "pretrain.lr must be a number, got True"),
        ("thresholds", "snap@0.5", True, "threshold 'snap@0.5': minimum must be a number, got True"),
        ("thresholds", "snap@0.5", "1e-1x", "threshold 'snap@0.5': minimum must be a number, got '1e-1x'"),
    ], ids=["text-engine-lr", "text-tau-delta", "bool-alpha", "bool-momentum", "bool-pretrain-lr",
            "bool-threshold", "text-threshold"])
    def test_non_numeric_real_setting_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                section, key, value, named):
        prepared = []
        monkeypatch.setattr(cli, "prepare_model", lambda *a: prepared.append(a))
        cfg = tiny_config(engine={}, thresholds={})
        cfg[section][key] = value
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not prepared and not out.exists()

    def test_numeric_strings_read_as_numbers(self, tmp_path):
        # YAML reads exponent notation without a dot as a string
        as_text = tiny_config(engine={"lr": "1e-3", "alpha": "4"}, thresholds={"snap@0.5": "1e-1"})
        as_text["pretrain"]["lr"] = "5e-2"
        as_numbers = tiny_config(engine={"lr": 0.001, "alpha": 4.0}, thresholds={"snap@0.5": 0.1})
        results = []
        for name, cfg in (("text", as_text), ("numbers", as_numbers)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg).replace("'1e-3'", "1e-3").replace("'5e-2'", "5e-2"))
            assert yaml.safe_load(path.read_text())["engine"]["lr"] == cfg["engine"]["lr"]
            out = str(tmp_path / name)
            assert main(["run", "--config", str(path), "--out", out]) == 0
            results.append(json.dumps(strip_timing(read_records(out)), sort_keys=True))
        assert results[0] == results[1]

    @pytest.mark.parametrize("stream_cfg,named", [
        ({"batch_size": 16.9}, "stream.batch_size must be an integer >= 1, got 16.9"),
        ({"batch_size": 0}, "stream.batch_size must be an integer >= 1, got 0"),
        ({"batch_size": True}, "stream.batch_size must be an integer >= 1, got True"),
        ({"batches": 2.7}, "stream.segments[0].batches must be an integer >= 1, got 2.7"),
        ({"batches": True}, "stream.segments[0].batches must be an integer >= 1, got True"),
        ({"batches": 0}, "stream.segments[0].batches must be an integer >= 1, got 0"),
    ], ids=["fractional-batch-size", "zero-batch-size", "bool-batch-size", "fractional-batches",
            "bool-batches", "zero-batches"])
    def test_bad_stream_count_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch, stream_cfg, named):
        prepared = []
        monkeypatch.setattr(cli, "prepare_model", lambda *a: prepared.append(a))
        cfg = tiny_config()
        if "batches" in stream_cfg:
            cfg["stream"]["segments"][0]["batches"] = stream_cfg["batches"]
        else:
            cfg["stream"]["batch_size"] = stream_cfg["batch_size"]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not prepared and not out.exists()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, 0.5, None], ids=repr)
    def test_non_boolean_correlated_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch, value):
        prepared = []
        monkeypatch.setattr(cli, "prepare_model", lambda *a: prepared.append(a))
        cfg = tiny_config()
        cfg["stream"]["correlated"] = value
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: stream.correlated must be true or false, got {value!r}\n"
        assert not prepared and not out.exists()

    def test_boolean_correlated_is_read_as_given(self):
        cfg = cli.load_config(None)
        for value in (False, True):
            cfg["stream"]["correlated"] = value
            assert cli.stream_spec_from_config(cfg, 0).correlated is value

    def test_threshold_for_a_cell_not_run_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(thresholds={"naive@0.5": 0.0}))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "threshold: threshold for naive@0.5: cell naive@1/2 was not run" in capsys.readouterr().err

    def test_threshold_pass_exits_zero(self, tmp_path):
        cfg = tiny_config(thresholds={"snap@0.5": 0.0})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0

    def test_checkpoint_loading(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out, "--save-model"]) == 0
        model_path = os.path.join(out, "model-seed0.json")
        assert os.path.exists(model_path)
        out2 = str(tmp_path / "out2")
        assert main(["run", "--config", cfg_path, "--out", out2,
                     "--checkpoint", model_path]) == 0
        # same engine trajectory from the same weights
        a = strip_timing(read_records(out))
        b = strip_timing(read_records(out2))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("channels,stream_classes,named", [
        (16, 3, "the model takes 16 channels and 3 classes, the stream has 8 channels and 3 classes"),
        (8, 5, "the model takes 8 channels and 3 classes, the stream has 8 channels and 5 classes"),
    ], ids=["channels", "classes"])
    def test_checkpoint_of_another_shape_exits_one_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                                   channels, stream_classes, named):
        ran = []
        monkeypatch.setattr(cli, "run_cell", lambda *a: ran.append(a))
        model_path = tmp_path / "model.json"
        save_model(default_model(channels=channels, num_classes=3, blocks=2, seed=0), model_path)
        cfg = tiny_config()
        cfg["stream"]["segments"][0]["domain"]["num_classes"] = stream_classes
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--checkpoint", str(model_path)]) == 1
        assert capsys.readouterr().err == f"error: {model_path}: {named}\n"
        assert not ran and not out.exists()

    def test_missing_checkpoint_exits_one(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(tmp_path / "none.json")]) == 1

    def test_malformed_checkpoint_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config())
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out, "--save-model"]) == 0
        model_path = os.path.join(out, "model-seed0.json")
        with open(model_path) as fh:
            payload = json.load(fh)
        del payload["layers"][2]  # the first block's relu
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_path}: model checkpoint: layers[2] has kind 'channel_mix', want 'relu'")
        assert not (tmp_path / "o").exists()

    def test_checkpoint_missing_a_field_exits_one(self, tmp_path, capsys):
        payload = model_dict(default_model(channels=8, blocks=2, seed=0))
        del payload["layers"][1]["gamma"]
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(payload))
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(bad_path)]) == 1
        assert capsys.readouterr().err == f"error: {bad_path}: model checkpoint: layers[1].gamma is missing\n"
        assert not (tmp_path / "o").exists()

    def test_checkpoint_that_is_not_json_exits_one_naming_it(self, tmp_path, capsys):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text("not json\n")
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(bad_path)]) == 1
        assert capsys.readouterr().err == f"error: {bad_path}: Expecting value: line 1 column 1 (char 0)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--config", "--checkpoint", "compare-base", "compare-other"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_input_file_exits_one_naming_it(self, tmp_path, capsys, flag, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe not text\n")
        good = tmp_path / "results.jsonl"
        good.write_text(result_line("snap", "1", 0.5, 0.1))
        argv = {
            "--config": ["run", "--config", str(bad)],
            "--checkpoint": ["run", "--config", write_config(tmp_path, tiny_config()), "--checkpoint", str(bad)],
            "compare-base": ["compare", str(bad), str(good)],
            "compare-other": ["compare", str(good), str(bad)],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_diverging_pretraining_exits_one(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["pretrain"]["lr"] = 1.0e200
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: pretraining: overflow encountered in multiply\n"
        assert not (tmp_path / "o").exists()

    def test_diverging_adaptation_fails_its_cell(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(engine={"lr": 1.0e200}))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out]) == 3
        # ar 1/2 adapts after batch 1; the next forward overflows
        assert capsys.readouterr().err == "error: snap@1/2 seed 0: batch 2: overflow encountered in multiply\n"
        assert read_records(out) == []

    def test_tent_equivalent_cell_matches_oracle(self, tmp_path):
        cfg = tiny_config(grid={"modes": ["tent-equivalent"], "ar": ["1"], "seeds": [0]})
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        rec = read_records(out)[0]

        loaded = cli.load_config(cfg_path)
        model = cli.prepare_model(loaded, 0, None)
        from stta.cli import stream_spec_from_config
        from stta.datagen import make_stream

        batches = list(make_stream(stream_spec_from_config(loaded, 0)))
        _, preds = run_tent(model, [b.x for b in batches], lr=loaded["engine"]["lr"])
        correct = sum(int((p == b.labels).sum()) for p, b in zip(preds, batches))
        total = sum(len(b.labels) for b in batches)
        assert rec["metrics"]["accuracy"] == pytest.approx(correct / total, abs=1e-12)


class TestCompare:
    def make_results(self, tmp_path, modes, name):
        cfg_path = write_config(tmp_path, tiny_config(grid={
            "modes": modes, "ar": ["0.5"], "seeds": [0, 1]}), name=name + ".yaml")
        out = str(tmp_path / name)
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        return os.path.join(out, "results.jsonl")

    def test_self_compare_all_zero(self, tmp_path, capsys):
        path = self.make_results(tmp_path, ["snap"], "self")
        assert main(["compare", path, path]) == 0
        out = capsys.readouterr().out
        assert "0.0000" in out

    def test_compare_by_ar_across_modes(self, tmp_path, capsys):
        base = self.make_results(tmp_path, ["naive"], "base")
        other = self.make_results(tmp_path, ["snap"], "other")
        assert main(["compare", base, other, "--by", "ar"]) == 0
        assert "1/2" in capsys.readouterr().out

    def test_compare_by_ar_skips_null_accuracies(self, tmp_path, capsys):
        def write(name, rows):
            path = tmp_path / name
            path.write_text("".join(result_line(*row) for row in rows))
            return str(path)

        base = write("base.jsonl", [("snap", "1", 0.5, 0.1), ("naive", "1", None, 0.3), ("snap", "1/2", None, 0.2)])
        other = write("other.jsonl", [("crm", "1", 0.75, 0.4), ("crm", "1/2", 0.6, 0.2)])
        assert main(["compare", base, other, "--by", "ar"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["1", "0.5000", "0.7500", "0.2500", "2.000"], ["1/2", "-", "0.6000", "-", "1.000"]]

    def test_disjoint_cells_usage_error(self, tmp_path, capsys):
        base = self.make_results(tmp_path, ["naive"], "d1")
        other = self.make_results(tmp_path, ["snap"], "d2")
        assert main(["compare", base, other]) == 1
        assert "no cells" in capsys.readouterr().err

    def test_gap_marker_for_missing_cell(self, tmp_path, capsys):
        base = self.make_results(tmp_path, ["snap", "naive"], "g1")
        other = self.make_results(tmp_path, ["snap"], "g2")
        assert main(["compare", base, other]) == 0
        out = capsys.readouterr().out
        assert "GAP" in out and "naive@1/2" in out

    def test_accuracy_drop_flagging(self, tmp_path):
        base = self.make_results(tmp_path, ["snap"], "f1")
        other = self.make_results(tmp_path, ["snap"], "f2")
        # identical files: any positive allowed drop passes
        assert main(["compare", base, other, "--max-accuracy-drop", "0.5"]) == 0

    def test_accuracy_drop_beyond_the_limit_exits_two(self, tmp_path, capsys):
        base, other = tmp_path / "base.jsonl", tmp_path / "other.jsonl"
        base.write_text(result_line("snap", "1", 0.9, 0.1) + result_line("naive", "1", 0.8, 0.1))
        other.write_text(result_line("snap", "1", 0.5, 0.1) + result_line("naive", "1", 0.75, 0.1))
        assert main(["compare", str(base), str(other), "--max-accuracy-drop", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err == "threshold: snap@1: accuracy drop 0.4000 exceeds 0.1\n"

    @pytest.mark.parametrize("limit", ["nan", "inf", "-0.1"])
    def test_bad_max_accuracy_drop_exits_one(self, tmp_path, capsys, limit):
        base, other = tmp_path / "base.jsonl", tmp_path / "other.jsonl"
        base.write_text(result_line("snap", "1", 0.9, 0.1))
        other.write_text(result_line("snap", "1", 0.5, 0.1))
        assert main(["compare", str(base), str(other), "--max-accuracy-drop", limit]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --max-accuracy-drop must be >= 0 and finite, got {float(limit)}\n"
        assert not captured.out

    def test_compare_csv_has_a_row_for_a_gap(self, tmp_path):
        base, other = tmp_path / "base.jsonl", tmp_path / "other.jsonl"
        base.write_text(result_line("snap", "1", 0.5, 0.1) + result_line("naive", "1", 0.25, 0.1))
        other.write_text(result_line("snap", "1", 0.75, 0.2))
        out_csv = tmp_path / "delta.csv"
        assert main(["compare", str(base), str(other), "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["snap@1", "0.5", "0.75", "0.25", "2.0"], ["naive@1", "", "", "", ""]]

    def test_compare_writes_csv(self, tmp_path):
        path = self.make_results(tmp_path, ["snap"], "c1")
        out_csv = str(tmp_path / "delta.csv")
        assert main(["compare", path, path, "--out", out_csv]) == 0
        with open(out_csv) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["cell", "base_accuracy", "other_accuracy",
                          "delta_accuracy", "latency_ratio"]

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_compare_out_that_cannot_be_written_exits_three(self, tmp_path, capsys, where):
        base = tmp_path / "base.jsonl"
        base.write_text(result_line("snap", "1", 0.5, 0.1))
        out = tmp_path if where == "directory" else tmp_path / "none" / "delta.csv"
        assert main(["compare", str(base), str(base), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        strerror = "Is a directory" if where == "directory" else "No such file or directory"
        assert captured.err == f"error: {out}: {strerror}\n"
        assert captured.out.startswith("cell ")  # the table is printed before the write

    @pytest.mark.parametrize("line,named", [
        ('{"schema": 1, "cell": "snap@1", "ar": "1", "mode": "snap", "seed": 0}', "metrics.accuracy"),
        ("[1, 2]", "JSON object"),
        ('{"schema": 1, ', "JSON object"),
        ('{"schema": 1, "cell": "snap@1", "ar": "1", "mode": "snap", "metrics": {"accuracy": "high"}, '
         '"timing": {"mean_batch_seconds": 0.1}}', "metrics.accuracy"),
        ('{"schema": 1, "cell": "snap@1", "ar": "1", "mode": "snap", "metrics": {"accuracy": 0.5}, '
         '"timing": {}}', "timing.mean_batch_seconds"),
        ('{"schema": 1, "ar": "1", "mode": "snap", "metrics": {"accuracy": 0.5}, '
         '"timing": {"mean_batch_seconds": 0.1}}', "cell"),
        ('{"schema": 1, "cell": "snap@1", "ar": 1, "mode": "snap", "metrics": {"accuracy": 0.5}, '
         '"timing": {"mean_batch_seconds": 0.1}}', "ar"),
        ('{"schema": true, "cell": "snap@1", "ar": "1", "mode": "snap", "metrics": {"accuracy": 0.5}, '
         '"timing": {"mean_batch_seconds": 0.1}}', "unsupported result schema True (want 1)"),
        ('{"schema": 1.0, "cell": "snap@1", "ar": "1", "mode": "snap", "metrics": {"accuracy": 0.5}, '
         '"timing": {"mean_batch_seconds": 0.1}}', "unsupported result schema 1.0 (want 1)"),
    ], ids=["no-metrics", "not-an-object", "bad-json", "text-accuracy", "no-latency", "no-cell",
            "numeric-ar", "bool-schema", "float-schema"])
    def test_malformed_record_rejected(self, tmp_path, capsys, line, named):
        good = self.make_results(tmp_path, ["snap"], "good")
        path = tmp_path / "bad.jsonl"
        path.write_text(open(good).read() + line + "\n")
        assert main(["compare", good, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: ") and named in err

    def test_schema_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 99, "cell": "x@1", "ar": "1", "mode": "x", "seed": 0}\n')
        assert main(["compare", str(path), str(path)]) == 1
        assert "schema" in capsys.readouterr().err


class TestParser:
    def test_usage_error_exit_code(self):
        assert main(["run", "--bogus-flag"]) == 1
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
