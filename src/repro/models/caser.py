"""Caser extension baseline (Tang & Wang, WSDM 2018).

Convolutional Sequence Embedding: the last ``L`` items form an
``L × d`` "image" processed by horizontal filters (sequential patterns
of 2–4 consecutive items, max-pooled over time) and vertical filters
(weighted sums over the time axis), fused with a per-user embedding.
Prominent in the paper's related work as the CNN representative of
sequential recommenders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import RowBatch, pad_left, transition_rows
from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender
from repro.models.training import TrainConfig, Trainable
from repro.nn import functional as F
from repro.nn.layers import Dropout, Embedding, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, no_grad, stack
from repro.train.stages import RowTableStage


@dataclass
class CaserConfig:
    """Architecture + training hyper-parameters."""

    dim: int = 32
    window: int = 5  # L: items per convolution window
    horizontal_filters: int = 8  # filters per height
    filter_heights: tuple[int, ...] = (2, 3, 4)
    vertical_filters: int = 4
    dropout: float = 0.2
    # A constant learning rate: decay to 0.1x under-trains it at lr 1e-3.
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=8, lr_final_factor=1.0)
    )


class Caser(Trainable, Module, Recommender):
    """Convolutional sequential recommender with user embeddings."""

    name = "Caser"
    stage = RowTableStage
    num_negatives = 1

    def __init__(
        self, dataset: SequenceDataset, config: CaserConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else CaserConfig()
        if max(self.config.filter_heights) > self.config.window:
            raise ValueError(
                "filter heights cannot exceed the convolution window "
                f"({self.config.filter_heights} vs {self.config.window})"
            )
        rng = np.random.default_rng(self.config.train.seed)
        d = self.config.dim
        self.item_embedding = Embedding(dataset.vocab_size, d, rng=rng)
        self.user_embedding = Embedding(dataset.num_users, d, rng=rng)
        # One Linear per filter height implements that height's bank of
        # horizontal convolutions (window rows flattened → filters).
        self.horizontal: list[Linear] = []
        for index, height in enumerate(self.config.filter_heights):
            layer = Linear(height * d, self.config.horizontal_filters, rng=rng)
            self.add_module(f"horizontal{index}", layer)
            self.horizontal.append(layer)
        self.vertical = Linear(
            self.config.window, self.config.vertical_filters, bias=False, rng=rng
        )
        fused = (
            self.config.horizontal_filters * len(self.config.filter_heights)
            + self.config.vertical_filters * d
        )
        self.fc = Linear(fused, d, rng=rng)
        self.dropout = Dropout(self.config.dropout, rng=rng)
        # Output layer scores [z; p_u] against every item.
        self.output_weight = Embedding(dataset.vocab_size, 2 * d, rng=rng)
        self.output_bias = Embedding(dataset.vocab_size, 1, rng=rng, std=0.0)
        self._rng = rng

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def _convolve(self, windows: np.ndarray) -> Tensor:
        """Encode ``(B, L)`` item windows into ``(B, d)`` summaries."""
        batch, length = windows.shape
        if length != self.config.window:
            raise ValueError(
                f"expected windows of length {self.config.window}, got {length}"
            )
        d = self.config.dim
        embedded = self.item_embedding(windows)  # (B, L, d)

        horizontal_outputs = []
        for height, layer in zip(self.config.filter_heights, self.horizontal):
            slides = []
            for offset in range(length - height + 1):
                piece = embedded[:, offset : offset + height, :].reshape(
                    batch, height * d
                )
                slides.append(F.relu(layer(piece)))  # (B, n_h)
            stacked = stack(slides, axis=1)  # (B, L-h+1, n_h)
            horizontal_outputs.append(stacked.max(axis=1))  # max over time

        vertical = self.vertical(
            embedded.transpose(0, 2, 1)  # (B, d, L)
        ).reshape(batch, d * self.config.vertical_filters)

        fused = concat(horizontal_outputs + [vertical], axis=-1)
        return F.relu(self.fc(self.dropout(fused)))  # (B, d)

    def _joint_representation(
        self, windows: np.ndarray, users: np.ndarray
    ) -> Tensor:
        z = self._convolve(windows)
        p = self.user_embedding(users)
        return concat([z, p], axis=-1)  # (B, 2d)

    def _score_items(self, joint: Tensor, items: np.ndarray) -> Tensor:
        weights = self.output_weight(items)  # (B, 2d)
        bias = self.output_bias(items).squeeze(-1)
        return (joint * weights).sum(axis=-1) + bias

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def training_rows(self, dataset: SequenceDataset) -> RowBatch:
        """Every (user, last-L window, next item) triple."""
        return transition_rows(dataset, self.config.window)

    def row_loss(self, batch: RowBatch) -> Tensor:
        """BCE of the next item against one sampled negative."""
        joint = self._joint_representation(batch.context, batch.users)
        pos_logits = self._score_items(joint, batch.positives)
        neg_logits = self._score_items(joint, batch.negatives)
        return (F.softplus(-pos_logits) + F.softplus(neg_logits)).mean()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        users = np.asarray(users)
        length = self.config.window
        windows = np.stack(
            [
                pad_left(dataset.full_sequence(int(user), split=split), length)
                for user in users
            ]
        )
        was_training = self.training
        self.eval()
        with no_grad():
            joint = self._joint_representation(windows, users)  # (B, 2d)
            table = self.output_weight.weight[: dataset.num_items + 1, :]
            bias = self.output_bias.weight[: dataset.num_items + 1, :]
            scores = (joint.matmul(table.transpose()) + bias.transpose()).data
        if was_training:
            self.train()
        return scores
