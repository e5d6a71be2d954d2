import json
import os

import numpy as np
import pytest
import yaml

from stta import cli
from stta.cli import main

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

    def test_bad_corruption_preset_exits_one(self, tmp_path):
        cfg = tiny_config()
        cfg["stream"]["segments"][0]["corruption"] = "fog"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1

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

    def test_missing_checkpoint_exits_one(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(tmp_path / "none.json")]) == 1

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

    def test_compare_writes_csv(self, tmp_path):
        path = self.make_results(tmp_path, ["snap"], "c1")
        out_csv = str(tmp_path / "delta.csv")
        assert main(["compare", path, path, "--out", out_csv]) == 0
        with open(out_csv) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["cell", "base_accuracy", "other_accuracy",
                          "delta_accuracy", "latency_ratio"]

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
