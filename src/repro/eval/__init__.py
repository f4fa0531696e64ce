"""Evaluation: full-ranking HR@k / NDCG@k under leave-one-out splits."""

from repro.eval.evaluator import EvaluationResult, Evaluator, candidate_scores
from repro.eval.metrics import hit_ratio, mrr, ndcg, rank_of_target, ranking_metrics
from repro.eval.topk import top_k_indices

__all__ = [
    "EvaluationResult",
    "Evaluator",
    "candidate_scores",
    "hit_ratio",
    "mrr",
    "ndcg",
    "rank_of_target",
    "ranking_metrics",
    "top_k_indices",
]
