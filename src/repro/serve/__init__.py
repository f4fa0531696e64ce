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
(:mod:`repro.serve.resilience`).  The drivers of a live server — the
load test and the chaos scenario — live in :mod:`repro.loadtest`, so a
serving process never imports them.

See ``docs/SERVING.md`` for the architecture, the metrics schema and
the resilience decision table, and ``python -m repro serve --help``
for the CLI entry point.
"""

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

__all__ = [
    "AdmissionController",
    "BodyTooLarge",
    "BreakerConfig",
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
    "ShedRequest",
    "read_requests_file",
    "sequence_key",
]
