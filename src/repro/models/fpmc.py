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

from repro.data.loaders import RowBatch, transition_rows
from repro.data.preprocessing import SequenceDataset
from repro.models.base import Recommender
from repro.models.losses import bpr_loss
from repro.models.training import TrainConfig, Trainable
from repro.nn.layers import Embedding
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.train.stages import FactorizationStage


@dataclass
class FPMCConfig:
    """Architecture + training hyper-parameters."""

    dim: int = 32
    # A constant learning rate: decay to 0.1x under-trains it at lr 1e-3.
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(batch_size=512, lr_final_factor=1.0)
    )


class FPMC(Trainable, Module, Recommender):
    """Factorized personalized first-order Markov chain."""

    name = "FPMC"
    stage = FactorizationStage
    num_negatives = 1

    def __init__(
        self, dataset: SequenceDataset, config: FPMCConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else FPMCConfig()
        rng = np.random.default_rng(self.config.train.seed)
        dim, num_items = self.config.dim, dataset.num_items
        self.user_item = Embedding(dataset.num_users, dim, rng=rng, std=0.05)  # V^{UI}
        self.item_user = Embedding(num_items + 1, dim, rng=rng, std=0.05)  # V^{IU}
        self.prev_item = Embedding(num_items + 1, dim, rng=rng, std=0.05)  # V^{LI}
        self.item_prev = Embedding(num_items + 1, dim, rng=rng, std=0.05)  # V^{IL}
        self._rng = rng

    def score(self, users, last_items, candidates) -> Tensor:
        mf = (self.user_item(users) * self.item_user(candidates)).sum(axis=-1)
        mc = (self.prev_item(last_items) * self.item_prev(candidates)).sum(axis=-1)
        return mf + mc

    def training_rows(self, dataset: SequenceDataset) -> RowBatch:
        """All (user, previous item, next item) training transitions."""
        return transition_rows(dataset, window=1)

    def row_loss(self, batch: RowBatch) -> Tensor:
        """S-BPR: the next item against a sampled one, same user and last item."""
        last = batch.context[:, -1]
        return bpr_loss(
            self.score(batch.users, last, batch.positives),
            self.score(batch.users, last, batch.negatives),
        )

    def score_items(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        users = np.asarray(users)
        last_items = np.asarray(
            [
                dataset.full_sequence(int(user), split=split)[-1]
                for user in users
            ],
            dtype=np.int64,
        )
        user_vecs = self.user_item.weight.data[users]
        prev_vecs = self.prev_item.weight.data[last_items]
        mf = user_vecs @ self.item_user.weight.data.T
        mc = prev_vecs @ self.item_prev.weight.data.T
        return mf + mc
