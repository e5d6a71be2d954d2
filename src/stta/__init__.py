"""Sparse test-time adaptation at desk scale.

A pretrained classifier adapts to a label-free, distribution-shifted
stream while updating on only a fraction of batches: a representative
sample memory picks what to adapt on, and shrinkage-corrected memory
statistics keep normalization aligned between updates.
"""

from .datagen import (
    Corruption,
    DomainSpec,
    StreamBatch,
    StreamSpec,
    continual_stream,
    corruption_presets,
    make_stream,
    sample_source,
)
from .engine import AdaptationSchedule, BatchRecord, Engine, EngineConfig, RunMetrics
from .memory import InsertOutcome, SampleMemory, wasserstein
from .model import (
    ForwardResult,
    Model,
    adapt_step,
    cross_entropy_loss,
    default_model,
    entropy_loss,
    forward,
    load_model,
    pretrain,
    save_model,
)
from .normalization import (
    ChannelStats,
    EmaNormState,
    MemoryNormState,
    StateError,
    corrected_stats,
    normalize,
    sampling_variances,
)
from .numerics import ShapeError, backward

__version__ = "0.1.0"

__all__ = [
    # datagen
    "Corruption", "DomainSpec", "StreamBatch", "StreamSpec", "continual_stream", "corruption_presets",
    "make_stream", "sample_source",
    # engine
    "AdaptationSchedule", "BatchRecord", "Engine", "EngineConfig", "RunMetrics",
    # memory
    "InsertOutcome", "SampleMemory", "wasserstein",
    # model
    "ForwardResult", "Model", "adapt_step", "cross_entropy_loss", "default_model",
    "entropy_loss", "forward", "load_model", "pretrain", "save_model",
    # normalization
    "ChannelStats", "EmaNormState", "MemoryNormState", "StateError", "corrected_stats", "normalize",
    "sampling_variances",
    # numerics
    "ShapeError", "backward",
]
