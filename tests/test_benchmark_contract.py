"""The benchmark's own checks pass on short streams.

`perfbench/workloads.py` drives the program through `cli.prepare_model`,
`datagen.make_stream`, `Engine.process_batch`, `model.forward` and
`cli.main`, and reads `StreamBatch.x`, the logits, the engine's records and
the grid's `results.jsonl`. This runs its set-up, one checked pass per
stream style and two short reference-grid runs, unmodified, so a change
that breaks what the benchmark reads fails here rather than in a benchmark
run.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stta import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its tracer as a top-level module
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("mode,ar", [("snap", Fraction(1, 10)), ("tent-equivalent", Fraction(1))])
def test_checked_passes(workloads, mode, ar):
    workload = workloads.StreamWorkload(mode, ar, workloads.BATCH_SIZE, ("scale_strong", "noise"), 20)
    cfg = cli.load_config(None)
    cfg["pretrain"]["epochs"] = 10
    base, batches, _, fingerprint = workloads.setup_stream(workload, cfg, 0)
    assert len(batches) == 20
    assert workloads.setup_stream(workload, cfg, 0)[3] == fingerprint

    out = workloads.Outcome()
    digests = [workloads.check_pass(workloads.stream_pass(base, workload.engine_config(cfg, 0), batches),
                                    workload, batches, out) for _ in range(2)]
    assert digests[0] == digests[1]
    assert set(out.checks) == {"batch.raised", "memory.capacity", "batch.predictions", "adapt.count",
                               "logits.finite"}
    assert out.correct, out.checks
    assert (out.attempted, out.failed) == (2 * len(batches), 0)


def test_checked_grid_runs(workloads, monkeypatch, tmp_path):
    # The grid workload runs `stta run` with its own argv (it passes `--workers`), twice.
    grid_config = workloads.grid_config

    def short(seed):
        cfg = grid_config(seed)
        cfg["pretrain"]["epochs"] = 10
        cfg["stream"]["segments"][0]["batches"] = 20
        return cfg

    monkeypatch.setattr(workloads, "grid_config", short)
    runs = [workloads.grid_once(0, str(tmp_path)) for _ in range(2)]
    out = workloads.Outcome()
    digests = [workloads.check_grid(run, out) for run in runs]
    workloads.check_grid_digests(digests, out, "grid.results_identical")
    assert [run.code for run in runs] == [0, 0]
    assert [len(run.records) for run in runs] == [workloads.GRID_CELLS] * 2 == [14, 14]
    assert digests[0] == digests[1]
    assert out.correct, out.checks
    assert (out.attempted, out.failed) == (2 * workloads.GRID_CELLS, 0)
