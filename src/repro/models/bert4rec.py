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
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import Adam, GradientClipper, LinearDecaySchedule
from repro.nn.tensor import Tensor


@dataclass
class BERT4RecConfig:
    """Architecture + Cloze-training hyper-parameters."""

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 2
    dropout: float = 0.2
    mask_probability: float = 0.3
    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 1e-3
    max_length: int = 50
    clip_norm: float = 5.0
    seed: int = 0


@dataclass
class ClozeHistory:
    """Per-epoch Cloze losses."""

    losses: list[float] = field(default_factory=list)


class BERT4Rec(Module, SequenceRecommender):
    """Bidirectional Transformer with Cloze (masked-item) training."""

    name = "BERT4Rec"

    def __init__(
        self, dataset: SequenceDataset, config: BERT4RecConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else BERT4RecConfig()
        self.mask_token = dataset.mask_token
        rng = np.random.default_rng(self.config.seed)
        self.encoder = SASRecEncoder(
            vocab_size=dataset.vocab_size,
            max_length=self.config.max_length,
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
        positions = np.argwhere(labels > 0)
        if len(positions) == 0:
            raise ValueError("cloze batch contains no masked positions")
        gathered = hidden[positions[:, 0], positions[:, 1], :]  # (M, d)
        item_table = self.encoder.item_embedding.weight  # (V, d)
        logits = gathered.matmul(item_table.transpose())  # (M, V)
        targets = labels[positions[:, 0], positions[:, 1]]
        return F.cross_entropy(logits, targets)

    def _make_cloze_batch(
        self, sequences: list[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        t = self.config.max_length
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
    # Training / inference
    # ------------------------------------------------------------------
    def fit(self, dataset: SequenceDataset, **overrides) -> ClozeHistory:
        config = self.config
        if overrides:
            config = BERT4RecConfig(**{**config.__dict__, **overrides})
        rng = self._rng
        eligible = [
            seq for seq in dataset.train_sequences if len(seq) >= 2
        ]
        optimizer = Adam(self.parameters(), lr=config.learning_rate)
        steps = max(1, config.epochs * (len(eligible) // config.batch_size + 1))
        schedule = LinearDecaySchedule(optimizer, total_steps=steps)
        clipper = GradientClipper(optimizer.params, config.clip_norm)
        history = ClozeHistory()

        self.train()
        for __ in range(config.epochs):
            order = rng.permutation(len(eligible))
            epoch_loss, batches = 0.0, 0
            for start in range(0, len(order), config.batch_size):
                chunk = [eligible[i] for i in order[start : start + config.batch_size]]
                inputs, labels = self._make_cloze_batch(chunk, rng)
                loss = self.cloze_loss(inputs, labels)
                optimizer.zero_grad()
                loss.backward()
                clipper.clip()
                optimizer.step()
                schedule.step()
                epoch_loss += loss.item()
                batches += 1
            history.losses.append(epoch_loss / max(1, batches))
        self.eval()
        return history

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
