"""Beyond-accuracy diagnostics for recommendation lists.

Accuracy metrics (HR/NDCG) say nothing about *what* a recommender
shows.  These diagnostics quantify two classic failure modes of
popularity-skewed implicit feedback:

* **catalog coverage@k** — the fraction of the catalogue that appears
  in at least one user's top-k list (low = the model only ever
  recommends blockbusters).
* **popularity bias@k** — the mean training popularity of recommended
  items, normalized by the catalogue mean (1.0 = popularity-neutral,
  ≫1 = blockbuster-heavy).
* **intra-list Gini@k** — concentration of recommendation exposure
  across items (0 = perfectly even exposure, 1 = all exposure on one
  item).
"""

from __future__ import annotations

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.eval.evaluator import candidate_scores
from repro.eval.topk import top_k_indices

_BATCH_SIZE = 256


def top_k_lists(
    model,
    dataset: SequenceDataset,
    users: np.ndarray,
    k: int = 10,
) -> np.ndarray:
    """Top-k recommended item ids per user, shape ``(len(users), k)``.

    Users are scored on their full (test-split) history.  Seen items
    and the padding column are excluded, mirroring the evaluation
    protocol.  A user with fewer than ``k`` recommendable items gets a
    shorter list, padded with 0 (the padding id), as
    :meth:`repro.models.base.Recommender.recommend` drops masked items.
    """
    users = np.asarray(users)
    lists = np.zeros((len(users), k), dtype=np.int64)
    for start in range(0, len(users), _BATCH_SIZE):
        batch = users[start : start + _BATCH_SIZE]
        scores = np.array(
            candidate_scores(model, dataset, batch), dtype=np.float64
        )
        scores[:, 0] = -np.inf
        for row, user in enumerate(batch):
            scores[row, dataset.seen_items(int(user))] = -np.inf
        for row, ranked in enumerate(top_k_indices(scores, k)):
            kept = ranked[np.isfinite(scores[row, ranked])]  # drop masked items
            lists[start + row, : len(kept)] = kept
    return lists


def catalog_coverage(lists: np.ndarray, num_items: int) -> float:
    """Fraction of the catalogue appearing in at least one top-k list."""
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    recommended = np.unique(lists)
    recommended = recommended[recommended > 0]
    return len(recommended) / num_items


def popularity_bias(
    lists: np.ndarray, dataset: SequenceDataset
) -> float:
    """Mean training popularity of recommended items / catalogue mean.

    1.0 means recommendations are popularity-neutral; higher values
    mean the model over-recommends popular items.  The padding id 0
    (an empty list slot) is not a recommendation; no recommendations
    at all give 0.0.
    """
    counts = np.zeros(dataset.num_items + 1, dtype=np.float64)
    for sequence in dataset.train_sequences:
        np.add.at(counts, sequence, 1.0)
    catalogue_mean = counts[1:].mean()
    if catalogue_mean == 0:
        raise ValueError("dataset has no training interactions")
    recommended = lists[lists > 0]
    if recommended.size == 0:
        return 0.0
    return float(counts[recommended].mean() / catalogue_mean)


def exposure_gini(lists: np.ndarray, num_items: int) -> float:
    """Gini coefficient of item exposure across all top-k lists."""
    exposure = np.zeros(num_items + 1, dtype=np.float64)
    np.add.at(exposure, lists.reshape(-1), 1.0)
    exposure = np.sort(exposure[1:])
    total = exposure.sum()
    if total == 0:
        return 0.0
    n = len(exposure)
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * exposure).sum()) / (n * total) - (n + 1) / n)


def recommendation_diagnostics(
    model,
    dataset: SequenceDataset,
    k: int = 10,
    max_users: int | None = None,
) -> dict[str, float]:
    """All list-quality diagnostics for one model on the test split."""
    users = dataset.evaluation_users("test")
    if max_users is not None:
        users = users[:max_users]
    lists = top_k_lists(model, dataset, users, k=k)
    return {
        f"coverage@{k}": catalog_coverage(lists, dataset.num_items),
        f"popularity_bias@{k}": popularity_bias(lists, dataset),
        f"gini@{k}": exposure_gini(lists, dataset.num_items),
    }
