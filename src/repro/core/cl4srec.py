"""CL4SRec: the paper's model (§3).

A SASRec user-representation encoder trained with the contrastive
NT-Xent objective over augmented sequence views, then (in the default
``pretrain_finetune`` mode) fine-tuned with the supervised next-item
BCE — or trained jointly (``joint`` mode, the ICDE camera-ready's
multi-task formulation ``L_rec + λ · L_cl``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.augment.compose import PairSampler
from repro.augment.factory import make_operator_set
from repro.core.contrastive import info_nce_loss
from repro.core.projection import ProjectionHead
from repro.core.trainer import PretrainHistory, pretrain_contrastive, train_joint
from repro.data.loaders import ContrastiveBatch
from repro.data.preprocessing import SequenceDataset
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig, TrainingHistory
from repro.nn.tensor import Tensor, no_grad


@dataclass
class CL4SRecConfig:
    """Full CL4SRec configuration.

    Attributes
    ----------
    sasrec:
        Architecture + fine-tuning hyper-parameters of the underlying
        SASRec encoder.
    augmentations:
        Operator names drawn from ``{"crop", "mask", "reorder"}``.  One
        name reproduces the per-operator study (both views use it with
        independent randomness); several names let the pair sampler mix.
    rates:
        Proportion rate per operator (η / γ / β), shared scalar or
        per-name list.  The paper sweeps {0.1, 0.3, 0.5, 0.7, 0.9}.
    distinct_pair:
        Force the two sampled operators to differ (RQ3 composition
        setting).
    temperature:
        NT-Xent temperature τ, read by every contrastive loss.
    cl_weight:
        λ in the joint objective ``L_rec + λ·L_cl``.
    projection_dim:
        Output dimensionality of the discarded projection head
        (defaults to the encoder dim).
    mode:
        ``"pretrain_finetune"`` (CP4Rec preprint pipeline, default) or
        ``"joint"`` (ICDE multi-task variant).
    pretrain / joint:
        The loop's hyper-parameters for each stage (batch size,
        learning rate, epochs, …); the losses' live above.
    """

    sasrec: SASRecConfig = field(default_factory=SASRecConfig)
    augmentations: Sequence[str] = ("crop", "mask", "reorder")
    rates: Sequence[float] | float = 0.5
    distinct_pair: bool = False
    temperature: float = 1.0
    cl_weight: float = 0.1
    projection_dim: int | None = None
    mode: str = "pretrain_finetune"
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=5))
    joint: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("pretrain_finetune", "joint"):
            raise ValueError(
                f"mode must be 'pretrain_finetune' or 'joint', got {self.mode!r}"
            )


class CL4SRec(SASRec):
    """Contrastive learning for sequential recommendation."""

    name = "CL4SRec"

    def __init__(
        self,
        dataset: SequenceDataset,
        config: CL4SRecConfig | None = None,
    ) -> None:
        self.cl_config = config if config is not None else CL4SRecConfig()
        super().__init__(dataset, self.cl_config.sasrec)
        self.operators = make_operator_set(
            self.cl_config.augmentations,
            self.cl_config.rates,
            mask_token=dataset.mask_token,
        )
        self.pair_sampler = PairSampler(
            self.operators, distinct=self.cl_config.distinct_pair
        )
        self.projection = ProjectionHead(
            self.cl_config.sasrec.dim,
            projection_dim=self.cl_config.projection_dim,
            rng=self._rng,
        )
        self.pretrain_history: PretrainHistory | None = None

    # ------------------------------------------------------------------
    # Contrastive stage
    # ------------------------------------------------------------------
    def contrastive_parameters(self):
        """Encoder + projection-head parameters (the pre-training set)."""
        return self.parameters()

    def contrastive_loss(self, batch: ContrastiveBatch) -> tuple[Tensor, float]:
        """NT-Xent over the projected representations of the two views."""
        repr_a = self.encoder.user_representation(batch.view_a)
        repr_b = self.encoder.user_representation(batch.view_b)
        z_a = self.projection(repr_a)
        z_b = self.projection(repr_b)
        return info_nce_loss(z_a, z_b, temperature=self.cl_config.temperature)

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def fit(
        self, dataset: SequenceDataset, skip_pretrain: bool = False, **overrides
    ) -> TrainingHistory:
        """Run the configured regime end-to-end.

        ``pretrain_finetune``: contrastive pre-training (encoder +
        projection), then the projection is discarded and the encoder
        fine-tuned with the supervised objective.  ``joint``: single
        multi-task stage.  Keyword overrides replace fields of the
        supervised :class:`~repro.models.training.TrainConfig` (the
        joint one in ``joint`` mode).

        Pass ``skip_pretrain=True`` to fine-tune directly — e.g. when
        the encoder was warm-started from a saved pre-trained
        checkpoint via ``load_state_dict``.
        """
        if self.cl_config.mode == "joint":
            config = replace(self.cl_config.joint, **overrides)
            losses = train_joint(self, dataset, config, rng=self._rng)
            return TrainingHistory(losses=losses)

        if not skip_pretrain:
            self.pretrain_history = pretrain_contrastive(
                self, dataset, self.cl_config.pretrain, rng=self._rng
            )
        # §3.2.3: the projection g(·) is discarded at fine-tuning — the
        # supervised loss never touches it, so fine-tuning optimizes the
        # encoder f(·) alone.
        return super().fit(dataset, **overrides)

    def score_users_projected(
        self, dataset: SequenceDataset, users: np.ndarray, split: str = "test"
    ) -> np.ndarray:
        """Ablation scorer (E-A1): score through the projection head.

        Used to quantify the paper's claim that the projection discards
        information useful for recommendation.
        """
        sequences = [dataset.full_sequence(int(user), split=split) for user in users]
        with no_grad():
            projected = self.projection(Tensor(self.encode_sequences(sequences))).data
        return projected @ self.item_embedding_matrix(dataset.num_items).T
