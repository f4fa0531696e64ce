"""One ``TrainConfig`` and one ``fit`` for every trained model.

:class:`Trainable` writes ``fit`` once: the model's
:class:`~repro.train.stages.Stage` under ``config.train``, through
:func:`repro.train.loop.run_training` — Adam with linear lr decay and
gradient clipping, and early stopping on validation HR@10 when
``eval_every > 0``.  :func:`train_next_item_model` is the paper's
fine-tuning regime (the masked next-item BCE,
:class:`~repro.train.stages.NextItemStage`) for callers that bring
their own config, generator, runtime or observer.

The loop optionally threads a
:class:`repro.runtime.resume.TrainingRuntime` for crash-safe periodic
checkpoints, bit-exact resume (including the early-stopping counters
and the best-validation parameters), and divergence rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.train.loop import run_training
from repro.train.stages import NextItemStage, TrainingHistory

__all__ = ["TrainConfig", "Trainable", "TrainingHistory", "train_next_item_model"]


@dataclass
class TrainConfig:
    """Training hyper-parameters of every model ``run_training`` trains.

    Defaults follow §4.1.4 where feasible at CPU scale; the paper's
    values (d=128, batch=256, lr=1e-3) are noted per field.
    """

    epochs: int = 10
    batch_size: int = 256  # paper: 256
    learning_rate: float = 1e-3  # paper: 1e-3
    max_length: int = 50  # paper: 50
    lr_final_factor: float = 0.1  # linear decay target
    clip_norm: float = 5.0
    patience: int = 3  # early-stopping patience (paper: early stopping)
    eval_every: int = 0  # 0 disables mid-training validation
    max_eval_users: int = 2000
    early_stopping_metric: str = "HR@10"
    # Negative sampling: 0.0 = uniform (the paper's setting); > 0 draws
    # negatives ∝ popularity^alpha (harder contrasts).
    negative_alpha: float = 0.0
    # Batch construction: "reference" (scalar, bit-compatible with the
    # golden fixtures) or "vectorized" (precomputed padded matrices, a
    # private RNG stream — see docs/PERFORMANCE.md).
    pipeline: str = "reference"
    # Data-parallel worker processes: 0 computes gradients in-process
    # (bit-compatible with the golden fixtures); N >= 1 takes them from
    # repro.train.parallel — deterministic at fixed N, but a different
    # sample than workers=0 (see docs/SCALING.md "Training at scale").
    workers: int = 0
    seed: int = 0


def train_next_item_model(
    model,
    dataset: SequenceDataset,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    runtime=None,
    obs=None,
) -> TrainingHistory:
    """Run the supervised loop on any model with ``sequence_loss``.

    The model contract:

    * ``parameters()`` — trainable parameters (a Module).
    * ``sequence_loss(batch: NextItemBatch) -> Tensor`` — scalar loss.
    * ``score_items(...)`` — used for validation-based early stopping
      when ``config.eval_every > 0``.

    ``runtime`` (a :class:`repro.runtime.resume.TrainingRuntime`) adds
    periodic checkpoints, resume, and divergence rollback; interrupted
    runs raise :class:`repro.runtime.resume.TrainingInterrupted` after
    flushing a final checkpoint.  ``obs`` (a
    :class:`repro.obs.RunObserver`) records one ``train_epoch`` event
    per epoch (loss, mean grad norm, sequences/sec, wall time) plus an
    ``eval`` event for every mid-training validation pass.
    """
    return run_training(NextItemStage, model, dataset, config, rng, runtime, obs)


class Trainable:
    """A model :func:`~repro.train.loop.run_training` trains.

    The model declares its :class:`~repro.train.stages.Stage` as
    ``stage`` and holds its hyper-parameters in ``config.train`` and its
    generator (initialization, dropout, batch order) in ``_rng``.
    """

    stage = NextItemStage

    def fit(self, dataset: SequenceDataset, **overrides) -> TrainingHistory:
        """Train under ``config.train``, keyword overrides replacing its fields."""
        config = self.config.train
        if overrides:
            config = replace(config, **overrides)
        return run_training(self.stage, self, dataset, config, rng=self._rng)
