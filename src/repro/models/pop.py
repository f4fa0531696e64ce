"""Most-popular baseline (non-personalized)."""

from __future__ import annotations

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender


class Pop(Recommender):
    """Recommend the globally most-interacted items to every user.

    The weakest baseline in the paper's Table 2: it ignores all
    personalization and all sequential information.
    """

    name = "Pop"

    def __init__(self) -> None:
        self._counts: np.ndarray | None = None

    def fit(self, dataset: SequenceDataset, **kwargs) -> "Pop":
        counts = np.zeros(dataset.num_items + 1, dtype=np.float64)
        for sequence in dataset.train_sequences:
            np.add.at(counts, sequence, 1.0)
        counts[0] = 0.0
        self._counts = counts
        return self

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        if self._counts is None:
            raise RuntimeError("Pop.fit must be called before scoring")
        return np.tile(self._counts, (len(users), 1))
