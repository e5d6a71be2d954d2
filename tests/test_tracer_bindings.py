"""The benchmark's tracer wraps program functions by module or class binding.

`perfbench/tracer.py` replaces each `(owner, attribute)` it lists with a
timing wrapper. A binding renamed or removed in the program makes a traced
benchmark run fail with a KeyError, so every one of them must exist.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stta import model as model_module
from stta.model import default_model, forward

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
            layer.memory_norm.populate(stats, x.shape[2], 3)
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
