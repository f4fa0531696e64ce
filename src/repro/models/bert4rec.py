"""BERT4Rec extension baseline (Sun et al., CIKM 2019).

The paper's related-work section singles out BERT4Rec as the
bidirectional improvement over SASRec; we provide it as an extension
baseline.  A *non-causal* Transformer encoder is trained with the Cloze
objective: a random proportion of positions is replaced by ``[mask]``
and the model predicts the hidden items with a full-softmax cross
entropy over the vocabulary.  At inference a ``[mask]`` is appended to
the history and the model predicts what fills it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import pad_left
from repro.data.preprocessing import SequenceDataset
from repro.models.base import SequenceRecommender
from repro.models.encoder import SASRecEncoder, trailing_columns
from repro.models.training import TrainConfig, Trainable
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.train.stages import ClozeStage


@dataclass
class BERT4RecConfig:
    """Architecture + Cloze-training hyper-parameters."""

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 2
    dropout: float = 0.2
    mask_probability: float = 0.3
    train: TrainConfig = field(default_factory=lambda: TrainConfig(batch_size=128))


class BERT4Rec(Trainable, Module, SequenceRecommender):
    """Bidirectional Transformer with Cloze (masked-item) training."""

    name = "BERT4Rec"
    stage = ClozeStage

    def __init__(
        self, dataset: SequenceDataset, config: BERT4RecConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else BERT4RecConfig()
        self.mask_token = dataset.mask_token
        rng = np.random.default_rng(self.config.train.seed)
        self.encoder = SASRecEncoder(
            vocab_size=dataset.vocab_size,
            max_length=self.config.train.max_length,
            dim=self.config.dim,
            num_layers=self.config.num_layers,
            num_heads=self.config.num_heads,
            dropout=self.config.dropout,
            rng=rng,
            causal=False,  # bidirectional attention — the point of BERT4Rec
        )
        self._rng = rng

    # ------------------------------------------------------------------
    # Cloze objective
    # ------------------------------------------------------------------
    def cloze_loss(self, inputs: np.ndarray, labels: np.ndarray) -> Tensor:
        """Cross entropy at masked positions only.

        ``labels[b, t]`` holds the original item at masked positions and
        0 elsewhere.
        """
        hidden = self.encoder(inputs)  # (B, w, d)
        labels = trailing_columns(labels, hidden.shape[1], "labels")
        masked = labels > 0
        if not masked.any():
            raise ValueError("cloze batch contains no masked positions")
        gathered = hidden[masked]  # (M, d)
        item_table = self.encoder.item_embedding.weight  # (V, d)
        logits = gathered.matmul(item_table.transpose())  # (M, V)
        return F.cross_entropy(logits, labels[masked])

    def make_cloze_batch(
        self, sequences: list[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(inputs, labels)``: each history padded, its masks drawn from ``rng``."""
        t = self.config.train.max_length
        inputs = np.zeros((len(sequences), t), dtype=np.int64)
        labels = np.zeros((len(sequences), t), dtype=np.int64)
        for row, sequence in enumerate(sequences):
            padded = pad_left(sequence, t)
            real = padded > 0
            mask_positions = real & (
                rng.random(t) < self.config.mask_probability
            )
            if not mask_positions.any() and real.any():
                # Always mask at least one real position.
                candidates = np.flatnonzero(real)
                mask_positions[rng.choice(candidates)] = True
            labels[row, mask_positions] = padded[mask_positions]
            padded = padded.copy()
            padded[mask_positions] = self.mask_token
            inputs[row] = padded
        return inputs, labels

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def encode_sequences(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Representation of the appended ``[mask]`` position per history.

        Scoring therefore predicts what fills the ``[mask]``.
        """
        return self.encoder.encode_sequences(
            [
                np.append(np.asarray(sequence, dtype=np.int64), self.mask_token)
                for sequence in sequences
            ]
        )

    def item_embedding_matrix(self, num_items: int) -> np.ndarray:
        """Scoring matrix ``(num_items + 1, dim)``."""
        return self.encoder.item_embedding.weight.data[: num_items + 1, :]
