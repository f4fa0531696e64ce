"""GRU4Rec baseline (Hidasi et al., 2016).

A GRU over the item-embedding sequence; trained with the same masked
next-item BCE as SASRec so the comparison isolates the architecture
(this matches how the paper's unified evaluation treats baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import NextItemBatch, pad_left
from repro.data.preprocessing import SequenceDataset
from repro.models.base import SequenceRecommender
from repro.models.losses import masked_next_item_bce
from repro.models.training import TrainConfig, Trainable
from repro.nn.layers import Dropout, Embedding
from repro.nn.module import Module
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor, no_grad


@dataclass
class GRU4RecConfig:
    """Architecture + training hyper-parameters."""

    dim: int = 64
    hidden_dim: int = 64
    num_layers: int = 1
    dropout: float = 0.1
    train: TrainConfig = field(default_factory=TrainConfig)


class GRU4Rec(Trainable, Module, SequenceRecommender):
    """GRU-based sequential recommender."""

    name = "GRU4Rec"

    def __init__(
        self, dataset: SequenceDataset, config: GRU4RecConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else GRU4RecConfig()
        rng = np.random.default_rng(self.config.train.seed)
        self.item_embedding = Embedding(dataset.vocab_size, self.config.dim, rng=rng)
        self.gru = GRU(
            self.config.dim,
            self.config.hidden_dim,
            num_layers=self.config.num_layers,
            rng=rng,
        )
        self.embedding_dropout = Dropout(self.config.dropout, rng=rng)
        self._rng = rng

    def _hidden_states(self, item_ids: np.ndarray) -> Tensor:
        embedded = self.embedding_dropout(self.item_embedding(item_ids))
        step_mask = (np.asarray(item_ids) > 0).astype(np.float64)
        return self.gru(embedded, step_mask=step_mask)

    def sequence_loss(self, batch: NextItemBatch) -> Tensor:
        hidden = self._hidden_states(batch.inputs)
        pos_vecs = self.item_embedding(batch.targets)
        neg_vecs = self.item_embedding(batch.negatives)
        pos_logits = (hidden * pos_vecs).sum(axis=-1)
        neg_logits = (hidden * neg_vecs).sum(axis=-1)
        return masked_next_item_bce(pos_logits, neg_logits, batch.mask)

    def encode_sequences(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Final GRU hidden states ``(len(sequences), hidden_dim)``."""
        t = self.config.train.max_length
        batch = np.zeros((len(sequences), t), dtype=np.int64)
        for row, sequence in enumerate(sequences):
            batch[row] = pad_left(sequence, t)
        was_training = self.training
        self.eval()
        with no_grad():
            hidden = self._hidden_states(batch)
            representation = hidden[:, -1, :].data
        if was_training:
            self.train()
        return representation

    def item_embedding_matrix(self, num_items: int) -> np.ndarray:
        """Scoring matrix ``(num_items + 1, dim)``."""
        return self.item_embedding.weight.data[: num_items + 1, :]
