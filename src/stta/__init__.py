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
    default_domain,
    make_stream,
    sample_source,
    single_domain_stream,
)
from .engine import AdaptationSchedule, BatchRecord, Engine, EngineConfig, RunMetrics
from .memory import (
    DomainCentroid,
    InsertOutcome,
    MemorySample,
    SampleMemory,
    SampleStats,
    confidence,
    wasserstein,
)
from .model import (
    ForwardResult,
    LayerSpec,
    Model,
    PretrainResult,
    adapt_step,
    build_model,
    cross_entropy_loss,
    default_model,
    entropy_loss,
    evaluate_accuracy,
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
    soft_shrinkage,
)
from .numerics import ShapeError, Tensor, backward

__version__ = "0.1.0"
