"""Neural Collaborative Filtering baseline (He et al., 2017).

NeuMF-style: a GMF branch (element-wise product of user/item vectors)
fused with an MLP branch over the concatenated embeddings, trained with
binary cross entropy against sampled negatives.  Non-sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loaders import NegativeSampler
from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender
from repro.nn import functional as F
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, concat, no_grad


@dataclass
class NCFConfig:
    """Hyper-parameters for NCF training."""

    dim: int = 32
    mlp_hidden: int = 64
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 1e-3
    num_negatives: int = 2
    seed: int = 0


class _NCFNet(Module):
    def __init__(self, num_users: int, num_items: int, config: NCFConfig, rng) -> None:
        super().__init__()
        dim = config.dim
        self.gmf_user = Embedding(num_users, dim, rng=rng, std=0.05)
        self.gmf_item = Embedding(num_items + 1, dim, rng=rng, std=0.05)
        self.mlp_user = Embedding(num_users, dim, rng=rng, std=0.05)
        self.mlp_item = Embedding(num_items + 1, dim, rng=rng, std=0.05)
        self.fc1 = Linear(2 * dim, config.mlp_hidden, rng=rng)
        self.fc2 = Linear(config.mlp_hidden, dim, rng=rng)
        self.output = Linear(2 * dim, 1, rng=rng)

    def logits(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        gmf = self.gmf_user(users) * self.gmf_item(items)
        mlp_in = concat([self.mlp_user(users), self.mlp_item(items)], axis=-1)
        mlp = self.fc2(F.relu(self.fc1(mlp_in)))
        fused = concat([gmf, mlp], axis=-1)
        return self.output(fused).squeeze(-1)


class NCF(Recommender):
    """NeuMF trained pointwise with sampled negatives."""

    name = "NCF"

    def __init__(self, config: NCFConfig | None = None) -> None:
        self.config = config if config is not None else NCFConfig()
        self._net: _NCFNet | None = None

    def fit(self, dataset: SequenceDataset, **kwargs) -> "NCF":
        config = self.config
        rng = np.random.default_rng(config.seed)
        self._net = _NCFNet(dataset.num_users, dataset.num_items, config, rng)
        optimizer = Adam(self._net.parameters(), lr=config.learning_rate)
        sampler = NegativeSampler(dataset.num_items, rng)

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
                # One positive + k sampled negatives per interaction.
                neg_users = np.repeat(batch_users, config.num_negatives)
                negatives = sampler.sample(
                    np.repeat(positives, config.num_negatives)
                )
                all_users = np.concatenate([batch_users, neg_users])
                all_items = np.concatenate([positives, negatives])
                labels = np.concatenate(
                    [np.ones(len(batch_users)), np.zeros(len(neg_users))]
                )
                logits = self._net.logits(all_users, all_items)
                loss = F.binary_cross_entropy_with_logits(logits, labels)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        return self

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        if self._net is None:
            raise RuntimeError("NCF.fit must be called before scoring")
        users = np.asarray(users)
        item_ids = np.arange(dataset.num_items + 1)
        scores = np.zeros((len(users), len(item_ids)))
        with no_grad():
            for row, user in enumerate(users):
                user_ids = np.full(len(item_ids), user, dtype=np.int64)
                scores[row] = self._net.logits(user_ids, item_ids).data
        return scores
