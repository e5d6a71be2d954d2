"""Every type that holds a real-valued setting checks it by the setting's one rule, with one message:
`<name> must be a number <rule>, got <value>`."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stta import (ChannelStats, Corruption, EmaNormState, Engine, EngineConfig, MemoryNormState, SampleMemory,
                  corrected_stats, default_model, load_model, pretrain, save_model)
from stta.model import load_model_dict, model_dict


def checkpoint_with_epsilon(value):
    """A one-block model checkpoint whose norm layer entry holds `value` as its `epsilon`, loaded."""
    payload = model_dict(default_model(channels=2, num_classes=2, blocks=1))
    payload["norm_layers"][0]["epsilon"] = value
    return load_model_dict(payload)


# (setting, holder, how the holder takes a value, the name its message gives, the rule, a value out of range)
HOLDERS = [
    ("alpha", "EngineConfig", lambda v: EngineConfig(alpha=v), "alpha", ">= 0 and finite", -1.0),
    ("alpha", "MemoryNormState", lambda v: MemoryNormState(alpha=v), "alpha", ">= 0 and finite", -1.0),
    ("momentum", "EngineConfig", lambda v: EngineConfig(ema_momentum=v), "ema_momentum", "in (0, 1]", 0.0),
    ("momentum", "EmaNormState", lambda v: EmaNormState(momentum=v), "momentum", "in (0, 1]", 0.0),
    ("tau_conf", "EngineConfig", lambda v: EngineConfig(tau_conf=v), "tau_conf", "in [0, 1]", 1.5),
    ("tau_conf", "SampleMemory", lambda v: SampleMemory(4, 2, tau_conf=v), "tau_conf", "in [0, 1]", 1.5),
    ("beta", "EngineConfig", lambda v: EngineConfig(beta_centroid=v), "beta_centroid", "in (0, 1]", 1.5),
    ("beta", "SampleMemory", lambda v: SampleMemory(4, 2, beta=v), "beta", "in (0, 1]", 1.5),
    ("epsilon", "model checkpoint", checkpoint_with_epsilon,
     "model checkpoint: norm_layers[0].epsilon", "> 0 and finite", 0.0),
]
# None: the row's own. No setting takes an infinity, nor an integer beyond the largest float. A numpy scalar is
# read as the Python number it holds: a numpy boolean is a boolean, and a float32 infinity is not finite.
BAD_VALUES = {"boolean": True, "numeric-string": "0.5", "nan": math.nan, "out-of-range": None,
              "beyond-float": 10**400, "infinity": math.inf, "numpy-boolean": np.True_,
              "numpy-float32-infinity": np.float32(math.inf)}


def message(name, rule, value):
    return "^" + re.escape(f"{name} must be a number {rule}, got {value!r}") + "$"


@pytest.mark.parametrize("kind", list(BAD_VALUES))
@pytest.mark.parametrize("setting,holder,make,name,rule,out_of_range", HOLDERS,
                         ids=[f"{row[0]}-{row[1]}" for row in HOLDERS])
def test_every_holder_raises_the_rule_message(setting, holder, make, name, rule, out_of_range, kind):
    value = BAD_VALUES[kind] if BAD_VALUES[kind] is not None else out_of_range
    with pytest.raises(ValueError, match=message(name, rule, value)):
        make(value)


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int64(1)], ids=["float32", "float64", "int64"])
@pytest.mark.parametrize("setting,holder,make,name,rule,out_of_range", HOLDERS,
                         ids=[f"{row[0]}-{row[1]}" for row in HOLDERS])
def test_every_holder_takes_an_in_range_numpy_scalar_without_a_warning(setting, holder, make, name, rule,
                                                                        out_of_range, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make(value)


@pytest.mark.parametrize("kind", list(BAD_VALUES))
@pytest.mark.parametrize("served_first", [False, True], ids=["fresh-zone", "sized-zone"])
def test_a_replaced_alpha_is_checked_by_the_rule(kind, served_first):
    # A new alpha reaches a state only through `replace`, which builds a new value by the constructor's checks.
    value = BAD_VALUES[kind] if BAD_VALUES[kind] is not None else -1.0
    state = MemoryNormState(4.0, ChannelStats(np.zeros(2), np.ones(2)), 8, 16)
    if served_first:
        corrected_stats(state, ChannelStats(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError, match=message("alpha", ">= 0 and finite", value)):
        replace(state, alpha=value)
    assert state.alpha == 4.0


@pytest.mark.parametrize("make,name,rule", [
    (lambda v: Corruption(scale=v), "scale", "that is finite"),
    (lambda v: Corruption(noise=v), "noise", ">= 0 and finite"),
    (lambda v: EngineConfig(lr=v), "lr", ">= 0 and finite"),
    (lambda v: pretrain(default_model(channels=2, num_classes=2, blocks=1), np.zeros((2, 2, 3)), [0, 1], lr=v),
     "pretraining: lr", "> 0 and finite"),
], ids=["corruption-scale", "corruption-noise", "engine-lr", "pretrain-lr"])
def test_an_integer_beyond_the_largest_float_is_not_finite(make, name, rule):
    with pytest.raises(ValueError, match=message(name, rule, 10**400)):
        make(10**400)


def test_numpy_scalar_settings_are_held_as_python_numbers(tmp_path):
    # A numpy scalar passes its rule as the number it holds, without a warning, and every holder keeps that
    # Python number, which the engine and model checkpoints write.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = EngineConfig(ar="1/2", capacity=np.int64(4), seed=np.int64(3), lr=np.float32(1e-3))
        states = (MemoryNormState(np.float32(2.0), ChannelStats(np.zeros(2), np.ones(2)), np.int64(8), np.int64(16)),
                  EmaNormState(momentum=np.float32(0.5)))
    assert [type(getattr(config, key)) for key in ("capacity", "seed", "lr")] == [int, int, float]
    held = (states[0].alpha, states[0].spatial_extent, states[0].sample_count, states[1].momentum)
    assert [type(value) for value in held] == [float, int, int, float]
    engine = Engine(default_model(channels=2, num_classes=2, blocks=1), config)
    for x in np.random.default_rng(0).normal(size=(2, 4, 2, 3)):
        engine.process_batch(x)
    engine.save(tmp_path / "engine.json")
    assert Engine.load(tmp_path / "engine.json").state_dict() == engine.state_dict()
    model = default_model(channels=2, num_classes=2, blocks=1)
    model.norm_layers[0].memory_norm, model.norm_layers[0].ema = states
    save_model(model, tmp_path / "model.json")
    assert model_dict(load_model(tmp_path / "model.json")) == model_dict(model)
