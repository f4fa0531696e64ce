"""SASRec baseline (Kang & McAuley, 2018) — the paper's strongest
baseline and the user-representation model inside CL4SRec.

Trains a causal Transformer with the next-item binary cross-entropy of
paper Eq. (15): at every real position the hidden state is scored
against the true next item and one sampled negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import NextItemBatch
from repro.data.preprocessing import SequenceDataset
from repro.models.base import SequenceRecommender
from repro.models.encoder import SASRecEncoder, trailing_columns
from repro.models.losses import masked_next_item_bce
from repro.models.training import TrainConfig, Trainable
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass
class SASRecConfig:
    """Architecture + training hyper-parameters.

    Paper settings: d=128, L=2 blocks, h=2 heads, T=50.  The defaults
    use a smaller d for CPU-scale runs; pass ``dim=128`` to match the
    paper exactly.
    """

    dim: int = 64
    num_layers: int = 2  # paper: 2
    num_heads: int = 2  # paper: 2
    dropout: float = 0.2
    train: TrainConfig = field(default_factory=TrainConfig)


class SASRec(Trainable, Module, SequenceRecommender):
    """Self-attentive sequential recommender."""

    name = "SASRec"

    def __init__(self, dataset: SequenceDataset, config: SASRecConfig | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else SASRecConfig()
        self.dataset_num_items = dataset.num_items
        rng = np.random.default_rng(self.config.train.seed)
        self.encoder = SASRecEncoder(
            vocab_size=dataset.vocab_size,
            max_length=self.config.train.max_length,
            dim=self.config.dim,
            num_layers=self.config.num_layers,
            num_heads=self.config.num_heads,
            dropout=self.config.dropout,
            rng=rng,
        )
        self._rng = rng

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def sequence_loss(self, batch: NextItemBatch) -> Tensor:
        """Next-item BCE averaged over the real positions (paper Eq. 15).

        Hidden states, targets and negatives are gathered only where
        the loss mask is non-zero, so padded positions never reach the
        graph: no embedding row is gathered or scattered for them.
        """
        hidden = self.encoder(batch.inputs)  # (B, w, d)
        width = hidden.shape[1]
        mask = trailing_columns(batch.mask, width, "loss mask")
        real = mask != 0
        states = hidden[real]  # (N, d), N real positions
        pos_vecs = self.encoder.item_embedding(batch.targets[:, -width:][real])
        neg_vecs = self.encoder.item_embedding(batch.negatives[:, -width:][real])
        pos_logits = (states * pos_vecs).sum(axis=-1)
        neg_logits = (states * neg_vecs).sum(axis=-1)
        return masked_next_item_bce(pos_logits, neg_logits, mask[real])

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def encode_sequences(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Last-position user representations ``(len(sequences), d)``.

        The serving engine calls this directly so it can cache the
        representations and score them against a precomputed item
        matrix; :meth:`score_sequences` composes the two.
        """
        return self.encoder.encode_sequences(sequences)

    def item_embedding_matrix(self, num_items: int) -> np.ndarray:
        """Scoring matrix ``(num_items + 1, d)`` — rows are item vectors."""
        return self.encoder.item_embedding.weight.data[: num_items + 1, :]
