"""Batched top-k serving for trained recommenders.

The training side of the repo ends at a checkpoint; this package turns
one into a recommendation service::

    from repro.serve import RecommendationEngine

    engine = RecommendationEngine.from_checkpoint(
        "runs/beauty/joint", model, dataset
    )
    result = engine.recommend(user=42, k=10)

Serving is resilient by default: per-request deadlines, admission
control with load shedding, a circuit breaker over encoder scoring
with a cache → popularity fallback chain, and atomic hot model reload
(:mod:`repro.serve.resilience`); :mod:`repro.serve.chaos` drives a
live server through deterministic fault scenarios and asserts the
invariants hold.

See ``docs/SERVING.md`` for the architecture, the metrics schema and
the resilience decision table, and ``python -m repro serve --help``
for the CLI entry point.
"""

from repro.serve.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.serve.config import ServeConfig
from repro.serve.engine import (
    LRUCache,
    ModelSwapError,
    RecommendationEngine,
    sequence_key,
)
from repro.serve.metrics import ServingMetrics
from repro.serve.requests import (
    Recommendation,
    RecRequest,
    RequestError,
    read_requests_file,
)
from repro.serve.resilience import (
    REFUSAL_REASONS,
    AdmissionController,
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    PopularityFallback,
    ResilienceConfig,
    ResiliencePolicy,
    ServingUnavailable,
    ShedRequest,
)
from repro.serve.server import BodyTooLarge, CheckpointWatcher, RecommendationServer
from repro.serve.shard import (
    partition_requests,
    shard_for_request,
    shard_for_sequence,
    shard_for_user,
)
from repro.serve.workers import ShardedEngine, SharedModelState

__all__ = [
    "AdmissionController",
    "BodyTooLarge",
    "BreakerConfig",
    "ChaosConfig",
    "ChaosReport",
    "CheckpointWatcher",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "LRUCache",
    "ModelSwapError",
    "PopularityFallback",
    "REFUSAL_REASONS",
    "RecRequest",
    "Recommendation",
    "RecommendationEngine",
    "RecommendationServer",
    "RequestError",
    "ResilienceConfig",
    "ResiliencePolicy",
    "ServeConfig",
    "ServingMetrics",
    "ServingUnavailable",
    "ShardedEngine",
    "SharedModelState",
    "ShedRequest",
    "partition_requests",
    "read_requests_file",
    "run_chaos",
    "sequence_key",
    "shard_for_request",
    "shard_for_sequence",
    "shard_for_user",
]
