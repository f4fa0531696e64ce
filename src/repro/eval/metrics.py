"""Ranking metrics (paper §4.1.2).

The paper evaluates on the *whole* item set without negative sampling
(citing Krichene & Rendle's warning about sampled metrics), reporting
Hit Ratio and NDCG at k ∈ {5, 10, 20}.  With a single relevant item
per user, ``NDCG@k`` reduces to ``1 / log2(rank + 1)`` when the target
ranks within the top *k* and 0 otherwise.
"""

from __future__ import annotations

import numpy as np

DEFAULT_KS = (5, 10, 20)


def rank_of_target(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each row's target item under ``scores``.

    ``scores`` has shape ``(batch, num_candidates)``; ``targets`` holds
    the column index of the relevant item per row.  Ties are broken
    pessimistically (items scoring equal to the target are counted as
    ranked above it), which penalizes degenerate constant scorers.  NaN
    never ranks above anything: a NaN competitor counts as tied-or-above
    and a NaN target takes the worst rank, ``num_candidates`` — so a
    diverged model reads as the worst, not the best.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(len(targets))
    target_scores = scores[rows, targets][:, None]
    # Every column not strictly below the target ranks with or above it
    # (the target itself included -> 1-based); NaN compares below nothing.
    return scores.shape[1] - (scores < target_scores).sum(axis=1)


def hit_ratio(ranks: np.ndarray, k: int) -> float:
    """Fraction of users whose target ranks within the top ``k``."""
    ranks = np.asarray(ranks)
    if len(ranks) == 0:
        return 0.0
    return float((ranks <= k).mean())


def ndcg(ranks: np.ndarray, k: int) -> float:
    """Mean NDCG@k with one relevant item per user."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        return 0.0
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def mrr(ranks: np.ndarray) -> float:
    """Mean reciprocal rank (extra metric, not in the paper's tables)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        return 0.0
    return float((1.0 / ranks).mean())


def ranking_metrics(
    ranks: np.ndarray, ks: tuple[int, ...] = DEFAULT_KS
) -> dict[str, float]:
    """HR@k and NDCG@k for every ``k`` plus MRR, as a flat dict."""
    out: dict[str, float] = {}
    for k in ks:
        out[f"HR@{k}"] = hit_ratio(ranks, k)
        out[f"NDCG@{k}"] = ndcg(ranks, k)
    out["MRR"] = mrr(ranks)
    return out
