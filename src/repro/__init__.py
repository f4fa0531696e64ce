"""repro — a reproduction of CL4SRec (ICDE 2022).

"Contrastive Learning for Sequential Recommendation" — a SASRec-style
Transformer user-representation encoder trained with an NT-Xent
contrastive objective over three stochastic sequence augmentations
(crop / mask / reorder), plus the paper's complete baseline suite,
data pipeline, full-ranking evaluation protocol and experiment harness.

Quickstart
----------
>>> from repro import CL4SRec, CL4SRecConfig, Evaluator, load_dataset
>>> dataset = load_dataset("beauty", scale=0.02, seed=0)
>>> model = CL4SRec(dataset, CL4SRecConfig(augmentations=("mask",), rates=0.5))
>>> model.fit(dataset, epochs=2)  # doctest: +SKIP
>>> Evaluator(dataset).evaluate(model).metrics  # doctest: +SKIP
"""

from repro.augment import (
    Crop,
    Identity,
    Mask,
    PairSampler,
    Reorder,
)
from repro.core import (
    CL4SRec,
    CL4SRecConfig,
    MoCoCL4SRec,
    MoCoConfig,
    ProjectionHead,
    info_nce_loss,
    nt_xent,
    pretrain_contrastive,
    train_joint,
)
from repro.data import (
    DATASETS,
    InteractionLog,
    SequenceDataset,
    SyntheticConfig,
    dataset_names,
    dataset_report,
    five_core_filter,
    generate_log,
    load_dataset,
    read_csv_log,
    read_jsonl_log,
)
from repro.eval import (
    EvaluationResult,
    Evaluator,
    ranking_metrics,
    top_k_indices,
)
from repro.runtime import (
    CheckpointError,
    CheckpointManager,
    DivergenceError,
    DivergenceGuard,
    FaultInjector,
    SimulatedPreemption,
    TrainingInterrupted,
    TrainingRuntime,
)
from repro.models import (
    BERT4Rec,
    BPRMF,
    Caser,
    FPMC,
    GRU4Rec,
    NCF,
    Pop,
    Recommender,
    SASRec,
    SASRecBPR,
    SASRecConfig,
    TrainConfig,
    available_models,
    build_model,
    register_model,
)
from repro.obs import (
    EventSink,
    Histogram,
    MetricsRegistry,
    Profiler,
    RunObserver,
    read_events,
    summarize_run,
)
from repro.serve import (
    Recommendation,
    RecommendationEngine,
    RecommendationServer,
    RecRequest,
    ServingMetrics,
)

__version__ = "1.0.0"

__all__ = [
    "BERT4Rec",
    "BPRMF",
    "CL4SRec",
    "CL4SRecConfig",
    "Caser",
    "CheckpointError",
    "CheckpointManager",
    "Crop",
    "DATASETS",
    "DivergenceError",
    "DivergenceGuard",
    "EvaluationResult",
    "Evaluator",
    "EventSink",
    "FPMC",
    "FaultInjector",
    "GRU4Rec",
    "Histogram",
    "Identity",
    "InteractionLog",
    "Mask",
    "MetricsRegistry",
    "MoCoCL4SRec",
    "MoCoConfig",
    "NCF",
    "PairSampler",
    "Pop",
    "Profiler",
    "ProjectionHead",
    "RecRequest",
    "Recommendation",
    "RecommendationEngine",
    "RecommendationServer",
    "Recommender",
    "Reorder",
    "RunObserver",
    "SASRec",
    "SASRecBPR",
    "SASRecConfig",
    "SequenceDataset",
    "ServingMetrics",
    "SimulatedPreemption",
    "SyntheticConfig",
    "TrainConfig",
    "TrainingInterrupted",
    "TrainingRuntime",
    "available_models",
    "build_model",
    "dataset_names",
    "dataset_report",
    "five_core_filter",
    "generate_log",
    "info_nce_loss",
    "load_dataset",
    "nt_xent",
    "pretrain_contrastive",
    "ranking_metrics",
    "read_csv_log",
    "read_events",
    "read_jsonl_log",
    "register_model",
    "summarize_run",
    "top_k_indices",
    "train_joint",
]
