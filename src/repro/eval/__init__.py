"""Evaluation: full-ranking HR@k / NDCG@k under leave-one-out splits,
plus beyond-accuracy list diagnostics (coverage, popularity bias, Gini)."""

from repro.eval.diagnostics import (
    catalog_coverage,
    exposure_gini,
    popularity_bias,
    recommendation_diagnostics,
    top_k_lists,
)
from repro.eval.evaluator import (
    EvaluationResult,
    Evaluator,
    candidate_scores,
    evaluate_model,
)
from repro.eval.metrics import hit_ratio, mrr, ndcg, rank_of_target, ranking_metrics
from repro.eval.temporal import evaluate_temporal
from repro.eval.topk import top_k_indices

__all__ = [
    "EvaluationResult",
    "Evaluator",
    "candidate_scores",
    "catalog_coverage",
    "evaluate_model",
    "evaluate_temporal",
    "exposure_gini",
    "hit_ratio",
    "mrr",
    "ndcg",
    "popularity_bias",
    "rank_of_target",
    "ranking_metrics",
    "recommendation_diagnostics",
    "top_k_indices",
    "top_k_lists",
]
