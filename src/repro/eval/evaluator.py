"""Leave-one-out full-ranking evaluation loop.

For each evaluation user the model scores the entire item vocabulary;
items the user has already interacted with are removed from the
candidate set (paper: "rank all the items that the user has not
interacted with"), then the held-out target's rank yields HR/NDCG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.eval.metrics import DEFAULT_KS, rank_of_target, ranking_metrics
from repro.nn.tensor import no_grad

_NEG_INF = -np.inf


def candidate_scores(
    model,
    dataset: SequenceDataset,
    users: np.ndarray,
    split: str = "test",
    index=None,
) -> np.ndarray:
    """Full-catalogue scores ``(len(users), num_items + 1)`` for a model.

    Without ``index`` this is ``model.score_items(dataset, users,
    split)``.  Scoring always runs under ``no_grad()`` — every in-repo
    scorer already disables the graph itself, but duck-typed scorers get
    the same guarantee here so an evaluation pass can never retain
    autograd state.

    With ``index`` (a built :class:`repro.retrieval.ItemIndex`) the
    user histories are encoded with ``model.encode_sequences`` and
    scored through :meth:`~repro.retrieval.ItemIndex.score` instead —
    exact (and bit-identical to ``score_items``) for ``ExactIndex``,
    approximate for quantized indexes, which is how the metric cost of
    compression is measured under the standard protocol.
    """
    # Imported here: the models import their training stages, which
    # import this module.
    from repro.models.base import SequenceRecommender

    with no_grad():
        if index is None:
            return np.asarray(model.score_items(dataset, users, split=split))
        if not isinstance(model, SequenceRecommender):
            raise TypeError(
                f"{type(model).__name__} is not a SequenceRecommender (no "
                f"encode_sequences); index-backed evaluation needs the "
                f"representation API"
            )
        sequences = [dataset.full_sequence(int(user), split=split) for user in users]
        return index.score(np.asarray(model.encode_sequences(sequences)))


@dataclass
class EvaluationResult:
    """Metrics plus the raw per-user ranks for deeper analysis."""

    metrics: dict[str, float]
    ranks: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))
    num_users: int = 0

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


class Evaluator:
    """Evaluate any model exposing ``score_items`` on a dataset split.

    The model contract is::

        score_items(dataset, users, split) -> np.ndarray
        # (len(users), num_items + 1)

    where column ``i`` is the score of item id ``i`` (column 0, the
    padding id, is ignored).

    Passing ``index`` (a built :class:`repro.retrieval.ItemIndex` over
    the model's item matrix) routes candidate scoring through the
    retrieval protocol instead: bit-identical metrics with
    ``ExactIndex``, and a direct measurement of what int8/PQ
    compression costs in HR/NDCG with the quantized indexes
    (see docs/RETRIEVAL.md).
    """

    def __init__(
        self,
        dataset: SequenceDataset,
        split: str = "test",
        ks: tuple[int, ...] = DEFAULT_KS,
        batch_size: int = 256,
        index=None,
    ) -> None:
        if split not in ("valid", "test"):
            raise ValueError(f"split must be 'valid' or 'test', got {split!r}")
        if index is not None and index.num_rows != dataset.num_items + 1:
            raise ValueError(
                f"index covers {index.num_rows} rows but the dataset has "
                f"{dataset.num_items} items (+1 padding)"
            )
        self.dataset = dataset
        self.split = split
        self.ks = ks
        self.batch_size = batch_size
        self.index = index
        self._users = dataset.evaluation_users(split)

    def evaluate(self, model, max_users: int | None = None, obs=None) -> EvaluationResult:
        """Run the full-ranking protocol and return metrics.

        ``obs`` (a :class:`repro.obs.RunObserver`) records per-batch
        scoring latency into the ``eval.score_batch_seconds`` histogram
        and emits one ``eval`` event with the resulting metrics, the
        user/candidate counts, and the scoring-vs-ranking time split.
        """
        eval_started = time.perf_counter()
        scoring_seconds = 0.0
        candidates_scored = 0
        users = self._users if max_users is None else self._users[:max_users]
        targets = (
            self.dataset.test_targets
            if self.split == "test"
            else self.dataset.valid_targets
        )
        all_ranks: list[np.ndarray] = []
        for start in range(0, len(users), self.batch_size):
            batch_users = users[start : start + self.batch_size]
            score_started = time.perf_counter()
            scores = np.array(
                candidate_scores(
                    model,
                    self.dataset,
                    batch_users,
                    split=self.split,
                    index=self.index,
                ),
                dtype=np.float64,
                copy=True,
            )
            batch_seconds = time.perf_counter() - score_started
            scoring_seconds += batch_seconds
            candidates_scored += scores.size
            if obs is not None:
                obs.observe("eval.score_batch_seconds", batch_seconds)
            if scores.shape != (len(batch_users), self.dataset.num_items + 1):
                raise ValueError(
                    f"scoring returned shape {scores.shape}, expected "
                    f"({len(batch_users)}, {self.dataset.num_items + 1})"
                )
            scores[:, 0] = _NEG_INF  # padding id is never a candidate
            batch_targets = np.asarray([targets[u] for u in batch_users])
            rows = np.arange(len(batch_users))
            target_scores = scores[rows, batch_targets].copy()
            for row, user in enumerate(batch_users):
                if self.split == "test":
                    # The validation item is part of the history now.
                    seen = self.dataset.seen_items(int(user))
                else:
                    seen = np.unique(self.dataset.train_sequences[int(user)])
                scores[row, seen] = _NEG_INF
            # The target must stay scoreable even if it repeats history.
            scores[rows, batch_targets] = target_scores
            all_ranks.append(rank_of_target(scores, batch_targets))
        ranks = np.concatenate(all_ranks) if all_ranks else np.array([])
        metrics = ranking_metrics(ranks, self.ks)
        if obs is not None:
            eval_seconds = time.perf_counter() - eval_started
            obs.observe("eval.seconds", eval_seconds)
            obs.increment("eval_runs")
            obs.increment("eval_users", len(users))
            obs.increment("eval_candidates_scored", candidates_scored)
            obs.event(
                "eval",
                split=self.split,
                num_users=len(users),
                candidates_scored=candidates_scored,
                scoring_seconds=scoring_seconds,
                ranking_seconds=eval_seconds - scoring_seconds,
                eval_seconds=eval_seconds,
                metrics=metrics,
            )
        return EvaluationResult(
            metrics=metrics,
            ranks=ranks,
            num_users=len(users),
        )
