"""BPR-MF baseline: matrix factorization with the BPR pairwise loss.

Rendle et al. (2009).  Non-sequential: a user is a single latent vector
regardless of interaction order.  Also provides the item embeddings
used to warm-start :class:`repro.models.sasrec_bpr.SASRecBPR`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loaders import NegativeSampler
from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender
from repro.models.losses import bpr_loss
from repro.nn.layers import Embedding
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import no_grad


@dataclass
class BPRMFConfig:
    """Hyper-parameters for BPR-MF training."""

    dim: int = 64
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    seed: int = 0


class _BPRMFNet(Module):
    def __init__(self, num_users: int, num_items: int, dim: int, rng) -> None:
        super().__init__()
        self.user_embedding = Embedding(num_users, dim, rng=rng, std=0.05)
        self.item_embedding = Embedding(num_items + 1, dim, rng=rng, std=0.05)


class BPRMF(Recommender):
    """Matrix factorization trained on (user, pos, neg) triples."""

    name = "BPR-MF"

    def __init__(self, config: BPRMFConfig | None = None) -> None:
        self.config = config if config is not None else BPRMFConfig()
        self._net: _BPRMFNet | None = None

    def fit(self, dataset: SequenceDataset, **kwargs) -> "BPRMF":
        config = self.config
        rng = np.random.default_rng(config.seed)
        self._net = _BPRMFNet(dataset.num_users, dataset.num_items, config.dim, rng)
        optimizer = Adam(
            self._net.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        sampler = NegativeSampler(dataset.num_items, rng)

        # Flatten training interactions into (user, item) pairs.
        users = np.concatenate(
            [
                np.full(len(seq), u, dtype=np.int64)
                for u, seq in enumerate(dataset.train_sequences)
                if len(seq)
            ]
        )
        items = np.concatenate(
            [seq for seq in dataset.train_sequences if len(seq)]
        ).astype(np.int64)

        for __ in range(config.epochs):
            order = rng.permutation(len(users))
            for start in range(0, len(order), config.batch_size):
                index = order[start : start + config.batch_size]
                batch_users = users[index]
                positives = items[index]
                negatives = sampler.sample(positives)

                user_vecs = self._net.user_embedding(batch_users)
                pos_vecs = self._net.item_embedding(positives)
                neg_vecs = self._net.item_embedding(negatives)
                pos_scores = (user_vecs * pos_vecs).sum(axis=-1)
                neg_scores = (user_vecs * neg_vecs).sum(axis=-1)
                loss = bpr_loss(pos_scores, neg_scores)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        return self

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        if self._net is None:
            raise RuntimeError("BPRMF.fit must be called before scoring")
        with no_grad():
            user_vecs = self._net.user_embedding.weight.data[np.asarray(users)]
            item_vecs = self._net.item_embedding.weight.data
        return user_vecs @ item_vecs.T

    def item_embeddings(self) -> np.ndarray:
        """Trained item vectors ``(num_items + 1, dim)`` for warm-starts."""
        if self._net is None:
            raise RuntimeError("BPRMF.fit must be called before item_embeddings")
        return self._net.item_embedding.weight.data.copy()
