"""Deterministic cost: Python calls into `stta` code per `process_batch`, by batch kind.

Latency medians on a shared machine move by up to about 20% within minutes;
the number of calls a batch makes does not move at all. The streams are the
benchmark's seed-0 `sparse-snap` and `dense-tent` streams, built here through
the package: the default config's source model, 16-sample batches, capacity
16, `snap` at `ar` 1/10 over the continual `scale_strong`, `noise`, `offset`
stream of 300 batches and `tent-equivalent` at `ar` 1 over 100 `noise`
batches. A `sys.setprofile` hook counts the calls whose frame runs `stta`
code, or builds one of its named tuples. Numpy's own Python wrappers are
left out: their number depends on numpy's version. Operator-level numpy work
(arithmetic operators, slicing) makes no call, so a count says nothing about
the size of the arrays; it goes beside timing, not in place of it.

Each bound is the median count of the code it was last set on. A change that
raises a count raises its bound and says why; one that cuts a count lowers
its bound, so the cut stays visible.
"""

import statistics
import sys
from fractions import Fraction

import pytest

from stta import cli, datagen
from stta.engine import Engine
from stta.memory import InsertOutcome
from stta.normalization import ChannelStats

# (workload, batch kind) -> the most `stta` Python calls a median batch of that kind may make
BOUNDS = {
    ("sparse-snap", "served"): 135,
    ("sparse-snap", "adapted"): 190.5,
    ("dense-tent", "adapted"): 140,
}
STREAMS = {  # workload -> (mode, ar, corruptions, batches)
    "sparse-snap": ("snap", Fraction(1, 10), ("scale_strong", "noise", "offset"), 300),
    "dense-tent": ("tent-equivalent", Fraction(1), ("noise",), 100),
}
SEED, BATCH_SIZE, CAPACITY = 0, 16, 16
NAMED_TUPLE_CONSTRUCTORS = {ChannelStats.__new__.__code__, InsertOutcome.__new__.__code__}


def is_stta(frame) -> bool:
    module = frame.f_globals.get("__name__", "")
    return module == "stta" or module.startswith("stta.") or frame.f_code in NAMED_TUPLE_CONSTRUCTORS


def counted_batch(engine, batch) -> tuple[int, bool]:
    """The `stta` Python calls `engine.process_batch(batch)` makes, and whether the batch adapted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and is_stta(frame):
            calls += 1

    sys.setprofile(profile)
    try:
        record = engine.process_batch(batch.x, batch.labels, batch.segment)
    finally:
        sys.setprofile(None)
    return calls, record.adapted


@pytest.fixture(scope="module")
def counts():
    """(workload, batch kind) -> the count of every batch of that kind, in stream order."""
    cfg = cli.load_config(None)
    base = cli.prepare_model(cfg, SEED, None)
    out = {}
    for name, (mode, ar, corruptions, batches) in STREAMS.items():
        config = cli.engine_config_for(mode, ar, dict(cfg["engine"], capacity=CAPACITY), SEED, BATCH_SIZE)
        spec = datagen.continual_stream(corruptions, batches // len(corruptions), BATCH_SIZE, SEED)
        model = base.clone()
        model.reset_inference_stats()
        engine = Engine(model, config)
        for batch in datagen.make_stream(spec):
            calls, adapted = counted_batch(engine, batch)
            out.setdefault((name, "adapted" if adapted else "served"), []).append(calls)
    return out


def test_every_batch_kind_is_counted(counts):
    assert {kind: len(calls) for kind, calls in counts.items()} == {
        ("sparse-snap", "served"): 270, ("sparse-snap", "adapted"): 30, ("dense-tent", "adapted"): 100}


@pytest.mark.parametrize("kind", list(BOUNDS), ids=lambda k: "-".join(k))
def test_median_calls_within_bound(counts, kind):
    median = statistics.median(counts[kind])
    assert median <= BOUNDS[kind], f"{kind}: a median batch makes {median} stta calls, bound {BOUNDS[kind]}"
