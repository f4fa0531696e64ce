"""Incremental fine-tuning: one bounded training round per stream span.

Each round runs a short joint CL4SRec optimization (``L_rec + λ·L_cl``)
over the replay buffer's current contents, starting from the weights
the serving engine currently promotes.  Rounds are crash-safe: every
round gets its own :class:`~repro.runtime.resume.TrainingRuntime`
checkpoint directory, so a loop killed mid-round resumes that round
bit-exactly (the PR-1 guarantee) instead of re-training from the start.

Determinism: the caller passes one per-round generator spawned from the
loop's root :class:`numpy.random.SeedSequence`; with a fixed seed,
identical buffer contents produce bit-identical weights.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from repro.core.cl4srec import CL4SRec
from repro.core.trainer import train_joint
from repro.data.loaders import NoTrainableData
from repro.data.preprocessing import SequenceDataset
from repro.models.training import TrainConfig, train_next_item_model
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.resume import TrainingRuntime

__all__ = ["FineTuneConfig", "FineTuneRoundResult", "IncrementalFineTuner"]


@dataclass
class FineTuneConfig(TrainConfig):
    """One round's training: a :class:`TrainConfig` with round defaults.

    ``epochs`` is per round.  The learning rate defaults well below the
    offline value (1e-3): online rounds see small, correlated windows of
    data, and a gentle step keeps the candidate close to the promoted
    weights so the shadow gate measures drift adaptation, not
    catastrophic forgetting.  The loss's τ and λ are the trainer
    model's (``CL4SRecConfig.temperature`` / ``cl_weight``).
    """

    epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 5e-4
    #: Round-scoped TrainingRuntime checkpoints land under
    #: ``<checkpoint_dir>/round-NNNN``; None disables mid-round
    #: crash-safety (the version store still persists every round's
    #: outcome).
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    keep: int = 2


@dataclass
class FineTuneRoundResult:
    """What one round of training did."""

    round: int
    epochs: int = 0
    losses: list[float] = field(default_factory=list)
    #: Epoch the round resumed from when a prior attempt was interrupted.
    resumed_from: int | None = None
    skipped: bool = False
    reason: str | None = None


class IncrementalFineTuner:
    """Drives per-round training of a single long-lived trainer model."""

    def __init__(self, model, config: FineTuneConfig | None = None, obs=None):
        self.model = model
        self.config = config if config is not None else FineTuneConfig()
        self.obs = obs

    def _runtime(self, round_index: int) -> TrainingRuntime | None:
        if self.config.checkpoint_dir is None:
            return None
        directory = os.path.join(
            self.config.checkpoint_dir, f"round-{round_index:04d}"
        )
        manager = CheckpointManager(directory, keep=self.config.keep)
        return TrainingRuntime(
            manager,
            checkpoint_every=self.config.checkpoint_every,
            resume=True,
            handle_signals=False,
            obs=self.obs,
        )

    def discard_round(self, round_index: int) -> None:
        """Drop a refused round's runtime checkpoints (audit lives in
        the version store; keeping refuted weights around would let a
        later resume pick them back up)."""
        if self.config.checkpoint_dir is None:
            return
        directory = os.path.join(
            self.config.checkpoint_dir, f"round-{round_index:04d}"
        )
        shutil.rmtree(directory, ignore_errors=True)

    def run_round(
        self,
        dataset: SequenceDataset,
        round_index: int,
        rng: np.random.Generator,
    ) -> FineTuneRoundResult:
        """Fine-tune the trainer model in place on ``dataset``."""
        config = self.config
        runtime = self._runtime(round_index)
        result = FineTuneRoundResult(round=round_index)
        try:
            if isinstance(self.model, CL4SRec):
                losses = train_joint(
                    self.model, dataset, config, rng=rng, runtime=runtime, obs=self.obs
                )
            else:
                # Plain next-item fine-tuning for non-contrastive models
                # (e.g. a bare SASRec checkpoint).
                losses = train_next_item_model(
                    self.model, dataset, config, rng=rng, runtime=runtime, obs=self.obs
                ).losses
        except NoTrainableData as error:
            # The buffer holds nothing to train on: the round refuses
            # rather than dies.  Any other error is a fault and raises.
            result.skipped = True
            result.reason = str(error)
            return result
        result.losses = [float(value) for value in losses]
        result.epochs = len(result.losses)
        if runtime is not None:
            result.resumed_from = runtime.resumed_from
        self.model.eval()
        return result
