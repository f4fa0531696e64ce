"""Neural Collaborative Filtering baseline (He et al., 2017).

NeuMF-style: a GMF branch (element-wise product of user/item vectors)
fused with an MLP branch over the concatenated embeddings, trained with
binary cross entropy against sampled negatives.  Non-sequential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import RowBatch, interaction_rows
from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender
from repro.models.training import TrainConfig, Trainable
from repro.nn import functional as F
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, no_grad
from repro.train.stages import RowTableStage

#: User-item pairs per scoring forward (bounds the MLP activations).
_SCORE_PAIRS = 1 << 16


@dataclass
class NCFConfig:
    """Architecture + training hyper-parameters."""

    dim: int = 32
    mlp_hidden: int = 64
    num_negatives: int = 2
    # A constant learning rate: decay to 0.1x under-trains it at lr 1e-3.
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(batch_size=512, lr_final_factor=1.0)
    )


class NCF(Trainable, Module, Recommender):
    """NeuMF trained pointwise with sampled negatives."""

    name = "NCF"
    stage = RowTableStage

    def __init__(
        self, dataset: SequenceDataset, config: NCFConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config = config if config is not None else NCFConfig()
        self.num_negatives = config.num_negatives
        rng = np.random.default_rng(config.train.seed)
        dim, num_users, num_items = config.dim, dataset.num_users, dataset.num_items
        self.gmf_user = Embedding(num_users, dim, rng=rng, std=0.05)
        self.gmf_item = Embedding(num_items + 1, dim, rng=rng, std=0.05)
        self.mlp_user = Embedding(num_users, dim, rng=rng, std=0.05)
        self.mlp_item = Embedding(num_items + 1, dim, rng=rng, std=0.05)
        self.fc1 = Linear(2 * dim, config.mlp_hidden, rng=rng)
        self.fc2 = Linear(config.mlp_hidden, dim, rng=rng)
        self.output = Linear(2 * dim, 1, rng=rng)
        self._rng = rng

    def logits(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        gmf = self.gmf_user(users) * self.gmf_item(items)
        mlp_in = concat([self.mlp_user(users), self.mlp_item(items)], axis=-1)
        mlp = self.fc2(F.relu(self.fc1(mlp_in)))
        fused = concat([gmf, mlp], axis=-1)
        return self.output(fused).squeeze(-1)

    def training_rows(self, dataset: SequenceDataset) -> RowBatch:
        return interaction_rows(dataset)

    def row_loss(self, batch: RowBatch) -> Tensor:
        """One positive + ``num_negatives`` sampled negatives per row."""
        users = np.concatenate(
            [batch.users, np.repeat(batch.users, self.num_negatives)]
        )
        items = np.concatenate([batch.positives, batch.negatives])
        labels = np.concatenate(
            [np.ones(len(batch.users)), np.zeros(len(batch.negatives))]
        )
        return F.binary_cross_entropy_with_logits(self.logits(users, items), labels)

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        users = np.asarray(users)
        items = np.arange(dataset.num_items + 1)
        dtype = self.output.weight.data.dtype
        scores = np.empty((len(users), len(items)), dtype=dtype)
        chunk = max(1, _SCORE_PAIRS // len(items))
        with no_grad():
            for start in range(0, len(users), chunk):
                block = users[start : start + chunk]
                logits = self.logits(
                    np.repeat(block, len(items)), np.tile(items, len(block))
                )
                scores[start : start + len(block)] = logits.data.reshape(len(block), -1)
        return scores
