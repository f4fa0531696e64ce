"""FPMC extension baseline (Rendle et al., WWW 2010).

Factorizing Personalized Markov Chains — the classical pre-deep-learning
sequential recommender the paper's related work opens with.  The score
of item *i* for user *u* whose last interaction was item *l* combines a
matrix-factorization term (long-term preference) with a factorized
first-order Markov term (short-term transition):

.. math::

    \\hat{x}_{u,l,i} = \\langle v_u^{UI}, v_i^{IU} \\rangle
                     + \\langle v_l^{LI}, v_i^{IL} \\rangle

trained with the S-BPR pairwise objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class FPMCConfig:
    """Hyper-parameters for FPMC training."""

    dim: int = 32
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    seed: int = 0


@dataclass
class FPMCHistory:
    """Per-epoch S-BPR losses."""

    losses: list[float] = field(default_factory=list)


class _FPMCNet(Module):
    def __init__(self, num_users: int, num_items: int, dim: int, rng) -> None:
        super().__init__()
        self.user_item = Embedding(num_users, dim, rng=rng, std=0.05)  # V^{UI}
        self.item_user = Embedding(num_items + 1, dim, rng=rng, std=0.05)  # V^{IU}
        self.prev_item = Embedding(num_items + 1, dim, rng=rng, std=0.05)  # V^{LI}
        self.item_prev = Embedding(num_items + 1, dim, rng=rng, std=0.05)  # V^{IL}

    def score(self, users, last_items, candidates):
        mf = (self.user_item(users) * self.item_user(candidates)).sum(axis=-1)
        mc = (self.prev_item(last_items) * self.item_prev(candidates)).sum(axis=-1)
        return mf + mc


class FPMC(Recommender):
    """Factorized personalized first-order Markov chain."""

    name = "FPMC"

    def __init__(self, config: FPMCConfig | None = None) -> None:
        self.config = config if config is not None else FPMCConfig()
        self._net: _FPMCNet | None = None

    def _transitions(
        self, dataset: SequenceDataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (user, previous item, next item) training transitions."""
        users, prev, nxt = [], [], []
        for user, sequence in enumerate(dataset.train_sequences):
            for left, right in zip(sequence[:-1], sequence[1:]):
                users.append(user)
                prev.append(left)
                nxt.append(right)
        if not users:
            raise ValueError("dataset has no training transitions")
        return (
            np.asarray(users, dtype=np.int64),
            np.asarray(prev, dtype=np.int64),
            np.asarray(nxt, dtype=np.int64),
        )

    def fit(self, dataset: SequenceDataset, **kwargs) -> FPMCHistory:
        config = self.config
        rng = np.random.default_rng(config.seed)
        self._net = _FPMCNet(dataset.num_users, dataset.num_items, config.dim, rng)
        optimizer = Adam(
            self._net.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        sampler = NegativeSampler(dataset.num_items, rng)
        users, prev, nxt = self._transitions(dataset)
        history = FPMCHistory()

        for __ in range(config.epochs):
            order = rng.permutation(len(users))
            epoch_loss, batches = 0.0, 0
            for start in range(0, len(order), config.batch_size):
                index = order[start : start + config.batch_size]
                negatives = sampler.sample(nxt[index])
                positive_scores = self._net.score(
                    users[index], prev[index], nxt[index]
                )
                negative_scores = self._net.score(
                    users[index], prev[index], negatives
                )
                loss = bpr_loss(positive_scores, negative_scores)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            history.losses.append(epoch_loss / max(1, batches))
        return history

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        if self._net is None:
            raise RuntimeError("FPMC.fit must be called before scoring")
        users = np.asarray(users)
        last_items = np.asarray(
            [
                dataset.full_sequence(int(user), split=split)[-1]
                for user in users
            ],
            dtype=np.int64,
        )
        with no_grad():
            user_vecs = self._net.user_item.weight.data[users]
            prev_vecs = self._net.prev_item.weight.data[last_items]
            mf = user_vecs @ self._net.item_user.weight.data.T
            mc = prev_vecs @ self._net.item_prev.weight.data.T
        return mf + mc
