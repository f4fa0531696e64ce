"""Entry points for the contrastive stage and the joint regime.

Two regimes are provided:

* :func:`pretrain_contrastive` — the preprint's CP4Rec pipeline: train
  the encoder + projection head with NT-Xent alone, then discard the
  projection and fine-tune with the supervised loop
  (:func:`repro.models.training.train_next_item_model`).
* :func:`train_joint` — the ICDE camera-ready's multi-task variant:
  each step minimizes ``L_rec + λ · L_cl`` over one supervised batch
  and one contrastive batch.

Both run :func:`repro.train.loop.run_training` on their
:class:`~repro.train.stages.Stage`, and accept an optional
:class:`repro.runtime.resume.TrainingRuntime` that adds crash-safe
periodic checkpoints, bit-exact resume, SIGTERM/SIGINT
flush-and-exit, and divergence rollback — see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.models.training import TrainConfig
from repro.train.loop import run_training
from repro.train.stages import JointStage, PretrainHistory, PretrainStage

__all__ = [
    "PretrainHistory",
    "pretrain_contrastive",
    "train_joint",
]


def pretrain_contrastive(
    model,
    dataset: SequenceDataset,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    runtime=None,
    obs=None,
) -> PretrainHistory:
    """Optimize NT-Xent over augmented view pairs (paper §3.2).

    The model contract: ``contrastive_parameters()`` (encoder +
    projection head) and ``contrastive_loss(batch) -> (Tensor, float)``
    returning the loss and the in-batch retrieval accuracy.

    ``runtime`` (a :class:`repro.runtime.resume.TrainingRuntime`) adds
    periodic checkpoints, resume, and divergence rollback; interrupted
    runs raise :class:`repro.runtime.resume.TrainingInterrupted` after
    flushing a final checkpoint.  ``obs`` (a
    :class:`repro.obs.RunObserver`) records one ``pretrain_epoch``
    event per epoch — NT-Xent loss, in-batch retrieval accuracy, mean
    grad norm, sequences/sec and epoch wall time.
    """
    return run_training(PretrainStage, model, dataset, config, rng, runtime, obs)


def train_joint(
    model,
    dataset: SequenceDataset,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    runtime=None,
    obs=None,
):
    """Joint multi-task optimization: ``L_rec + λ · L_cl`` per step.

    λ is the model's ``cl_config.cl_weight`` (and τ its
    ``cl_config.temperature``): the loss's hyper-parameters live on the
    model, the loop's on ``config``.  Returns the supervised-loss history (a list of per-epoch means of
    the combined loss).  ``runtime`` behaves as in
    :func:`pretrain_contrastive`.  ``obs`` records one ``joint_epoch``
    event per epoch, splitting the combined loss into its supervised
    (``rec_loss``) and weighted contrastive (``cl_loss``) components so
    ablation questions (how much does InfoNCE contribute?) are
    answerable from logs.
    """
    return run_training(JointStage, model, dataset, config, rng, runtime, obs)
