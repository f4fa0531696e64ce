"""BPR-MF baseline: matrix factorization with the BPR pairwise loss.

Rendle et al. (2009).  Non-sequential: a user is a single latent vector
regardless of interaction order.  Also provides the item embeddings
used to warm-start :class:`repro.models.sasrec_bpr.SASRecBPR`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import RowBatch, interaction_rows
from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender
from repro.models.losses import bpr_loss
from repro.models.training import TrainConfig, Trainable
from repro.nn.layers import Embedding
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.train.stages import FactorizationStage


@dataclass
class BPRMFConfig:
    """Architecture + training hyper-parameters."""

    dim: int = 64
    # A constant learning rate: decay to 0.1x under-trains it at lr 1e-3.
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(batch_size=512, lr_final_factor=1.0)
    )


class BPRMF(Trainable, Module, Recommender):
    """Matrix factorization trained on (user, pos, neg) triples."""

    name = "BPR-MF"
    stage = FactorizationStage
    num_negatives = 1

    def __init__(
        self, dataset: SequenceDataset, config: BPRMFConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else BPRMFConfig()
        rng = np.random.default_rng(self.config.train.seed)
        dim = self.config.dim
        self.user_embedding = Embedding(dataset.num_users, dim, rng=rng, std=0.05)
        self.item_embedding = Embedding(dataset.num_items + 1, dim, rng=rng, std=0.05)
        self._rng = rng

    def training_rows(self, dataset: SequenceDataset) -> RowBatch:
        return interaction_rows(dataset)

    def row_loss(self, batch: RowBatch) -> Tensor:
        user_vecs = self.user_embedding(batch.users)
        pos_scores = (user_vecs * self.item_embedding(batch.positives)).sum(axis=-1)
        neg_scores = (user_vecs * self.item_embedding(batch.negatives)).sum(axis=-1)
        return bpr_loss(pos_scores, neg_scores)

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        user_vecs = self.user_embedding.weight.data[np.asarray(users)]
        return user_vecs @ self.item_embedding.weight.data.T

    def item_embeddings(self) -> np.ndarray:
        """Trained item vectors ``(num_items + 1, dim)`` for warm-starts."""
        return self.item_embedding.weight.data.copy()
