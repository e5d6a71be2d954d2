"""The benchmark's tracer wraps program functions by module or class binding.

`perfbench/tracer.py` replaces each `(owner, attribute)` it lists with a
timing wrapper. A binding renamed or removed in the program makes a traced
benchmark run fail with a KeyError, so every one of them must exist. A call
that goes around a binding (an alias taken at import, a private fast path)
hides its work from the per-layer metrics, so traced streams check how many
spans each batch and each adaptation step make.
"""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stta import cli
from stta import model as model_module
from stta.datagen import DomainSpec, continual_stream, make_stream, sample_source
from stta.engine import Engine
from stta.model import default_model, forward, pretrain
from stta.normalization import MemoryNormState

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists(tracer):
    points = [(owner, attr) for owner, attr, *_ in tracer.ENTRY_POINTS + tracer.COUNTED + tracer.GENERATORS]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in points
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("source", model_module.NORM_SOURCES)
def test_traced_forward_spans_every_norm_layer(tracer, source):
    model = default_model(channels=4, blocks=2, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 4, 5))
    if source == "iobmn":
        first = forward(model, x)
        for layer, stats in zip(model.norm_layers, first.layer_stats):
            layer.memory_norm = MemoryNormState(layer.memory_norm.alpha, stats, x.shape[2], 3)
    before = tracer.bindings()
    t = tracer.Tracer()
    with t.installed():
        model_module.forward(model, x, source)
    names = [span[3] for span in t.spans]
    layers = len(model.norm_layers)
    assert names.count("normalization.normalize") == layers
    assert names.count(f"model.forward.{source}") == 1
    assert names.count("normalization.corrected_stats") == (layers if source == "iobmn" else 0)
    assert t.counts["normalization.shrink.channels"] == (4 * layers if source == "iobmn" else 0)
    assert tracer.bindings() == before


@pytest.fixture(scope="module")
def source_model():
    x, y = sample_source(DomainSpec(), 240, 1)
    model = default_model(seed=0)
    pretrain(model, x, y, epochs=4, lr=0.05, seed=2)
    return model


@pytest.mark.parametrize("mode,rate", [("snap", Fraction(1, 4)), ("tent-equivalent", Fraction(1))])
def test_traced_stream_passes_every_call_through_its_binding(tracer, source_model, mode, rate):
    """A fast path that skips a wrapped binding, or calls it a different number of times,
    changes the span counts the traced benchmark's per-layer metrics are made of."""
    size = 16
    config = cli.engine_config_for(mode, rate, cli.load_config(None)["engine"], 0, size)
    stream = make_stream(continual_stream(("scale_strong", "noise"), 6, size, seed=3))
    before = tracer.bindings()
    t = tracer.Tracer()
    with t.installed():
        metrics = Engine(source_model.clone(), config).run_stream(stream)
    assert tracer.bindings() == before
    children: dict[int, Counter] = {}
    for sid, parent, _root, name, _start, _end in t.spans:
        children.setdefault(sid, Counter())
        children.setdefault(parent, Counter())[name] += 1
    batches = sorted(s[0] for s in t.spans if s[3] == "engine.process_batch")
    steps = [s[0] for s in t.spans if s[3] == "model.adapt_step"]
    assert len(batches) == len(metrics.records) == 12
    assert len(steps) == metrics.adapt_count + metrics.skipped_adaptations and metrics.adapt_count > 0
    populated = False  # snap serves with memory statistics once an adaptation has populated them
    for sid, record in zip(batches, metrics.records):
        source = "iobmn" if mode == "snap" and populated else "batch"
        want = Counter({f"model.forward.{source}": 1, "numerics.softmax": 1, "memory.score": 1,
                        "memory.insert": size, "memory.update_centroid": 1, "memory.maybe_rescore": 1})
        if record.adapted or record.adapt_skipped:
            want.update(["memory.batch", "model.adapt_step"])
        assert children[sid] == want, f"batch {record.index}"
        populated |= record.adapted
    for sid in steps:
        assert children[sid] == Counter(["model.forward.batch", "model.entropy_loss", "numerics.backward"])
