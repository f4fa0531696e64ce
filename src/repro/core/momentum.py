"""MoCo-style momentum-contrast variant of CL4SRec (extension).

The paper's related work (§2.2) contrasts SimCLR's in-batch negatives —
the mechanism CL4SRec adopts — against He et al.'s MoCo, which pairs a
slowly-moving *key encoder* (an exponential moving average of the query
encoder) with a FIFO *queue* of past keys serving as a large, consistent
negative dictionary.  This module implements that alternative on top of
the same SASRec encoder and augmentation machinery, so the two
contrastive frameworks can be compared head-to-head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.projection import ProjectionHead
from repro.data.loaders import ContrastiveBatch
from repro.data.preprocessing import SequenceDataset
from repro.models.encoder import SASRecEncoder
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat, no_grad


@dataclass
class MoCoConfig:
    """Momentum-contrast hyper-parameters.

    Attributes
    ----------
    momentum:
        EMA coefficient ``m`` for the key encoder (MoCo uses 0.999; at
        our small scales a faster 0.95–0.99 works better).
    queue_size:
        Number of past keys kept as negatives.
    """

    momentum: float = 0.99
    queue_size: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.queue_size < 1:
            raise ValueError("queue_size must be positive")


class NegativeQueue:
    """FIFO buffer of L2-normalized key vectors."""

    def __init__(self, size: int, dim: int, rng: np.random.Generator) -> None:
        self.size = size
        keys = rng.normal(size=(size, dim))
        self._keys = keys / np.linalg.norm(keys, axis=1, keepdims=True)
        self._cursor = 0

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    def enqueue(self, new_keys: np.ndarray) -> None:
        """Insert keys, overwriting the oldest entries (wrapping)."""
        new_keys = np.asarray(new_keys, dtype=np.float64)
        norms = np.linalg.norm(new_keys, axis=1, keepdims=True)
        new_keys = new_keys / np.maximum(norms, 1e-12)
        for key in new_keys:
            self._keys[self._cursor] = key
            self._cursor = (self._cursor + 1) % self.size


class MoCoCL4SRec(CL4SRec):
    """CL4SRec with a momentum key encoder + negative queue.

    Drop-in replacement: the supervised stages and scoring are
    inherited unchanged; only the contrastive objective differs.
    """

    name = "MoCo-CL4SRec"

    def __init__(
        self,
        dataset: SequenceDataset,
        config: CL4SRecConfig | None = None,
        moco: MoCoConfig | None = None,
    ) -> None:
        super().__init__(dataset, config)
        self.moco = moco if moco is not None else MoCoConfig()
        dim = self.cl_config.sasrec.dim
        projection_dim = (
            self.cl_config.projection_dim
            if self.cl_config.projection_dim is not None
            else dim
        )
        # Key tower: same architecture, EMA-updated, never backprops.
        self.key_encoder = self._build_key_encoder(dataset)
        self.key_projection = ProjectionHead(
            dim, projection_dim=self.cl_config.projection_dim, rng=self._rng
        )
        self._sync_key_tower()
        self.queue = NegativeQueue(self.moco.queue_size, projection_dim, self._rng)

    def _build_key_encoder(self, dataset: SequenceDataset) -> SASRecEncoder:
        return SASRecEncoder(
            vocab_size=dataset.vocab_size,
            max_length=self.cl_config.sasrec.train.max_length,
            dim=self.cl_config.sasrec.dim,
            num_layers=self.cl_config.sasrec.num_layers,
            num_heads=self.cl_config.sasrec.num_heads,
            dropout=0.0,  # keys are meant to be stable
            rng=self._rng,
        )

    def _key_tower_pairs(self):
        """(query module, key module) pairs that track each other."""
        return (
            (self.encoder, self.key_encoder),
            (self.projection, self.key_projection),
        )

    def _sync_key_tower(self) -> None:
        """Copy query weights into the key tower (hard sync)."""
        for query, key in self._key_tower_pairs():
            key.load_state_dict(query.state_dict())

    def momentum_update(self) -> None:
        """EMA step: θ_k ← m·θ_k + (1−m)·θ_q."""
        m = self.moco.momentum
        for query, key in self._key_tower_pairs():
            query_params = dict(query.named_parameters())
            for name, key_param in key.named_parameters():
                key_param.data *= m
                key_param.data += (1.0 - m) * query_params[name].data

    def contrastive_parameters(self):
        """Only the query tower trains; the key tower follows by EMA."""
        yield from self.encoder.parameters()
        yield from self.projection.parameters()

    def contrastive_loss(self, batch: ContrastiveBatch) -> tuple[Tensor, float]:
        temperature = self.cl_config.temperature
        # Query view through the trainable tower.
        query = self.projection(self.encoder.user_representation(batch.view_a))
        query = F.l2_normalize(query, axis=-1)

        # Key view through the frozen EMA tower.
        with no_grad():
            key_repr = self.key_encoder.user_representation(batch.view_b)
            keys = self.key_projection(key_repr).data
        keys = keys / np.maximum(
            np.linalg.norm(keys, axis=1, keepdims=True), 1e-12
        )

        positive_logits = (query * Tensor(keys)).sum(axis=-1)  # (N,)
        negative_logits = query.matmul(Tensor(self.queue.keys.T))  # (N, Q)
        all_logits = concat(
            [positive_logits.expand_dims(1), negative_logits], axis=1
        ) * (1.0 / temperature)
        targets = np.zeros(all_logits.shape[0], dtype=np.int64)
        loss = F.cross_entropy(all_logits, targets)
        accuracy = float(
            (all_logits.data.argmax(axis=1) == 0).mean()
        )

        # Bookkeeping: EMA + enqueue happen per loss computation, i.e.
        # once per training step.
        if self.training:
            self.momentum_update()
            self.queue.enqueue(keys)
        return loss, accuracy
