"""The common recommender interface used by evaluation and serving."""

from __future__ import annotations

import abc

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.eval.topk import top_k_indices


class Recommender(abc.ABC):
    """Anything that can be fit on a :class:`SequenceDataset` and score items.

    The scoring contract is full-catalogue scoring (paper §4.1.2: every
    item is ranked, none sampled)::

        score_items(dataset, users, split) -> np.ndarray

    The result has shape ``(len(users), num_items + 1)``; column ``i``
    is the preference score for item id ``i`` (column 0 — the padding
    id — is ignored by the evaluator).
    """

    name: str = "recommender"

    @abc.abstractmethod
    def fit(self, dataset: SequenceDataset, **kwargs):
        """Train on the dataset's training sequences."""

    @abc.abstractmethod
    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        """Full-catalogue scores ``(len(users), num_items + 1)``."""

    def recommend(
        self,
        dataset: SequenceDataset,
        user: int,
        k: int = 10,
        exclude_seen: bool = True,
    ) -> np.ndarray:
        """Top-``k`` item ids for one user (the serving entry point).

        The user's full history (the ``test`` split) is scored.  With
        ``exclude_seen`` (default) items the user already interacted
        with are removed, mirroring the evaluation protocol.  Selection
        uses the shared partial-sort helper
        (:func:`repro.eval.topk.top_k_indices`) rather than a full
        ``argsort`` over the catalogue.
        """
        if k < 1:
            raise ValueError("k must be positive")
        scores = np.array(
            self.score_items(dataset, np.asarray([user])), dtype=np.float64
        )[0]
        scores[0] = -np.inf  # padding id
        if exclude_seen:
            scores[dataset.seen_items(int(user))] = -np.inf
        ranked = top_k_indices(scores, min(k, len(scores)))
        ranked = ranked[np.isfinite(scores[ranked])]  # drop masked items
        return ranked[:k]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequenceRecommender(Recommender):
    """A recommender that scores one user representation against item vectors.

    Paper §3.2: a user is the representation of their history, and an
    item's score is its embedding's dot product with it.  Subclasses
    implement the pair the serving engine and index-backed evaluation
    also use — :meth:`encode_sequences` and :meth:`item_embedding_matrix`
    — and inherit :meth:`score_items` and :meth:`score_sequences`.
    """

    @abc.abstractmethod
    def encode_sequences(self, sequences: list[np.ndarray]) -> np.ndarray:
        """User representations ``(len(sequences), d)`` from raw histories."""

    @abc.abstractmethod
    def item_embedding_matrix(self, num_items: int) -> np.ndarray:
        """Scoring matrix ``(num_items + 1, d)`` — rows are item vectors."""

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        """Full-vocabulary scores for each user's ``split`` history."""
        sequences = [
            dataset.full_sequence(int(user), split=split) for user in np.asarray(users)
        ]
        return self.score_sequences(sequences, dataset.num_items)

    def score_sequences(
        self, sequences: list[np.ndarray], num_items: int
    ) -> np.ndarray:
        """Score the vocabulary given raw histories (no dataset needed)."""
        return self.encode_sequences(sequences) @ self.item_embedding_matrix(
            num_items
        ).T
