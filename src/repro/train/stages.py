"""Every training regime, one :class:`Stage` each.

The three CL4SRec regimes (:class:`PretrainStage`, :class:`NextItemStage`,
:class:`JointStage`) and the baselines' objectives
(:class:`RowTableStage`, :class:`FactorizationStage`,
:class:`ClozeStage`) — every registered model but Pop trains through one.

A stage owns everything that differs between regimes and nothing else;
:func:`repro.train.loop.run_training` owns everything they share.  It
has two halves:

* the **bookkeeping** half exists from construction and lives with the
  optimizer: ``params`` (optimizer order), ``history`` (what the public
  entry point returns) and its checkpoint view ``hist``, the obs epoch
  ``event`` / ``label`` / ``metrics``, the ``extras`` / ``aux``
  checkpoint groups, and the :meth:`~Stage.resume` /
  :meth:`~Stage.end_epoch` / :meth:`~Stage.finish` hooks;
* the **batch** half exists after :meth:`~Stage.open`, which runs in
  whichever process computes gradients — this one at ``workers=0``,
  each forked worker (on its user shard) otherwise: the loaders,
  ``steps_per_epoch``, ``rngs`` (every generator a checkpoint must
  capture) and :meth:`~Stage.begin_epoch` / :meth:`~Stage.step`.

A new regime (another positive-pair rule, an augmentation-only control)
or a new model's objective is a new subclass — see ``docs/EXTENDING.md``
"Adding a model" and "Adding a training regime".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import (
    ContrastiveBatchLoader,
    NegativeSampler,
    NextItemBatchLoader,
    PopularityNegativeSampler,
    RowBatchLoader,
)
from repro.data.pipeline import CyclingStream
from repro.eval.evaluator import Evaluator

__all__ = [
    "ClozeStage",
    "FactorizationStage",
    "JointStage",
    "NextItemStage",
    "PretrainHistory",
    "PretrainStage",
    "RowTableStage",
    "Stage",
    "TrainingHistory",
    "dedup_rngs",
]


@dataclass
class PretrainHistory:
    """Per-epoch contrastive losses and in-batch retrieval accuracy."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


@dataclass
class TrainingHistory:
    """Per-epoch training losses and validation scores."""

    losses: list[float] = field(default_factory=list)
    valid_scores: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def dedup_rngs(rngs) -> list[np.random.Generator]:
    """The generators in ``rngs``, identity-deduplicated, order kept."""
    deduped: list[np.random.Generator] = []
    for rng in rngs:
        if isinstance(rng, np.random.Generator) and all(
            rng is not seen for seen in deduped
        ):
            deduped.append(rng)
    return deduped


class Stage:
    """One training regime: what to optimize, on which batches, what to record."""

    #: obs epoch event name and its ``stage`` field.
    event = label = ""
    #: Per-step extras :meth:`step` reports; averaged into the epoch event.
    metrics: tuple[str, ...] = ()
    #: Scalar loop state checkpointed under ``extra/`` (None: nothing).
    extras: dict[str, float] | None = None
    #: Adam's L2 weight decay on every parameter this stage trains.
    weight_decay = 0.0
    #: What the public entry point returns, and the live metric lists in
    #: it that the runtime checkpoints and restores in place; each
    #: subclass sets both.
    history = None
    hist: dict[str, list[float]]

    def __init__(self, model, dataset, config) -> None:
        self.model, self.dataset, self.config = model, dataset, config
        self.params = list(self._trainable())
        #: Named array groups checkpointed under ``aux/``.
        self.aux: dict[str, dict[str, np.ndarray]] = {}
        #: Constant fields added to every epoch event.
        self.event_fields: dict[str, float] = {}
        self._stream = self._graph = None

    def _trainable(self):
        return self.model.contrastive_parameters()

    def _refuse_unread(self, *names: str) -> None:
        """Refuse a set ``TrainConfig`` field this stage never reads."""
        for name in names:
            value = getattr(self.config, name)
            if value > 0:
                raise ValueError(
                    f"{type(self).__name__} does not read {name}: "
                    f"it must be 0, got {value!r}"
                )

    def _loaders(self, rng, **options) -> list:
        """This regime's loaders; the first one paces the epoch."""
        raise NotImplementedError

    def _contrastive_loader(self, rng, **options) -> ContrastiveBatchLoader:
        return ContrastiveBatchLoader(
            self.dataset,
            self.model.pair_sampler,
            self.config.max_length,
            self.config.batch_size,
            rng,
            **options,
        )

    # -- batch half -----------------------------------------------------
    def open(self, rng, obs=None, worker_shard=None) -> None:
        """Build the loaders on this process's generator and user shard."""
        self.loaders = self._loaders(rng, obs=obs, worker_shard=worker_shard)
        self.steps_per_epoch = self.loaders[0].num_batches
        # The loop generator drives batch order, augmentation and
        # negative sampling; the model's own generator drives dropout.
        self.rngs = dedup_rngs([rng, getattr(self.model, "_rng", None)])

    def begin_epoch(self) -> None:
        """Open the epoch's batch stream; batches are built as consumed."""
        self._stream = self.loaders[0].epoch()

    def step(self):
        """Forward one batch: ``(loss Tensor, rows, {metric: value})``."""
        raise NotImplementedError

    def compute(self):
        """One micro-batch's gradient, left on the parameters.

        Returns ``(loss value, rows, metrics)``; the value is read
        before ``backward`` runs.
        """
        loss, rows, metrics = self.step()
        # Hold this step's graph until the next one replaces it (also
        # across epochs), as a loop-local ``loss`` would: once nothing
        # holds it the allocator returns its pages to the OS and the
        # next forward faults them back in — measured ~34k minor faults
        # and ~25 % wall time per contrastive epoch.
        self._graph = loss
        value = loss.item()
        for param in self.params:
            param.zero_grad()
        loss.backward()
        return value, rows, metrics

    # -- bookkeeping half -----------------------------------------------
    def resume(self, start_epoch: int) -> int:
        """Adopt restored checkpoint state; returns the epoch to start at."""
        return start_epoch

    def end_epoch(self, epoch: int, loss: float, means: dict, obs) -> bool:
        """Record the finished epoch; True ends training early."""
        self.hist["losses"].append(loss)
        return False

    def finish(self) -> None:
        """Last word on the model once training is over."""


class PretrainStage(Stage):
    """NT-Xent over augmented view pairs (paper §3.2)."""

    event, label = "pretrain_epoch", "pretrain"
    metrics = ("accuracy",)

    def __init__(self, model, dataset, config) -> None:
        super().__init__(model, dataset, config)
        self._refuse_unread("eval_every", "negative_alpha")
        self.history = history = PretrainHistory()
        self.hist = {"losses": history.losses, "accuracies": history.accuracies}

    def _loaders(self, rng, **options):
        return [self._contrastive_loader(rng, **options)]

    def step(self):
        batch = next(self._stream)
        loss, accuracy = self.model.contrastive_loss(batch)
        return loss, len(batch.users), {"accuracy": float(accuracy)}

    def end_epoch(self, epoch, loss, means, obs) -> bool:
        self.history.accuracies.append(means["accuracy"])
        return super().end_epoch(epoch, loss, means, obs)


class NextItemStage(Stage):
    """Masked next-item BCE, with validation-based early stopping.

    The model's ``sequence_loss`` is the mean over a batch's real
    positions; the step scales it by ``batch.weight``, so every real
    position of a length-bucketed epoch weighs the same (paper Eq. 15).
    """

    event, label = "train_epoch", "supervised"

    def __init__(self, model, dataset, config) -> None:
        super().__init__(model, dataset, config)
        self.history = history = TrainingHistory()
        self.hist = {"losses": history.losses, "valid_scores": history.valid_scores}
        self.evaluator = (
            Evaluator(dataset, split="valid") if config.eval_every > 0 else None
        )
        # Early-stopping state lives in checkpoint-friendly containers so
        # a resumed run continues the patience countdown where it stopped.
        self.extras = {
            "best_metric": -np.inf,
            "epochs_since_best": 0.0,
            "best_epoch": -1.0,
            "stopped_early": 0.0,
        }

    def _trainable(self):
        return self.model.parameters()

    def _popularity_sampler(self, rng) -> PopularityNegativeSampler | None:
        """``negative_alpha > 0``: negatives ∝ popularity^alpha (else None)."""
        if self.config.negative_alpha <= 0:
            return None
        return PopularityNegativeSampler.from_sequences(
            self.dataset.train_sequences,
            self.dataset.num_items,
            rng,
            alpha=self.config.negative_alpha,
        )

    def _loaders(self, rng, **options):
        config = self.config
        return [
            NextItemBatchLoader(
                self.dataset,
                config.max_length,
                config.batch_size,
                rng,
                negative_sampler=self._popularity_sampler(rng),
                **options,
            )
        ]

    def step(self):
        batch = next(self._stream)
        return self.model.sequence_loss(batch) * batch.weight, len(batch.users), {}

    def resume(self, start_epoch: int) -> int:
        self.history.best_epoch = int(self.extras["best_epoch"])
        if self.extras["stopped_early"]:
            # The interrupted run had already early-stopped; don't train on.
            self.history.stopped_early = True
            return self.config.epochs
        return start_epoch

    def end_epoch(self, epoch, loss, means, obs) -> bool:
        super().end_epoch(epoch, loss, means, obs)
        config, state = self.config, self.extras
        if self.evaluator is None or (epoch + 1) % config.eval_every:
            return False
        self.model.eval()
        result = self.evaluator.evaluate(
            self.model, max_users=config.max_eval_users, obs=obs
        )
        self.model.train()
        score = result[config.early_stopping_metric]
        self.history.valid_scores.append(score)
        if score > state["best_metric"]:
            state["best_metric"] = score
            state["best_epoch"] = float(epoch)
            state["epochs_since_best"] = 0.0
            self.aux["best"] = self.model.state_dict()
            self.history.best_epoch = epoch
            return False
        state["epochs_since_best"] += 1.0
        if state["epochs_since_best"] < config.patience:
            return False
        self.history.stopped_early = True
        state["stopped_early"] = 1.0
        return True

    def finish(self) -> None:
        """Leave the model on its best-validation parameters."""
        best = self.aux.get("best")
        if best:
            self.model.load_state_dict(best)


class JointStage(Stage):
    """``L_rec + λ·L_cl``: one contrastive batch per supervised batch.

    λ is the model's ``cl_config.cl_weight``; ``L_rec`` is scaled by
    ``batch.weight`` as in :class:`NextItemStage`.

    The contrastive side cycles when its (shorter) epoch runs dry; its
    stream restarts with every epoch, so a pass left half consumed at
    the epoch's last step is dropped, not carried over.
    """

    event, label = "joint_epoch", "joint"
    metrics = ("rec_loss", "cl_loss")

    def __init__(self, model, dataset, config) -> None:
        super().__init__(model, dataset, config)
        self._refuse_unread("eval_every", "negative_alpha")
        self.history: list[float] = []  # train_joint returns the bare list
        self.hist = {"losses": self.history}
        self.event_fields = {"cl_weight": model.cl_config.cl_weight}

    def _loaders(self, rng, **options):
        config = self.config
        return [
            NextItemBatchLoader(
                self.dataset, config.max_length, config.batch_size, rng, **options
            ),
            self._contrastive_loader(rng, **options),
        ]

    def open(self, rng, obs=None, worker_shard=None) -> None:
        super().open(rng, obs=obs, worker_shard=worker_shard)
        if self.loaders[1].num_batches == 0:
            # The contrastive shard can't form a single batch (fewer
            # than 2 eligible users landed here); this worker sits the
            # run out rather than cycling an empty stream forever.
            self.steps_per_epoch = 0

    def begin_epoch(self) -> None:
        super().begin_epoch()
        self._cl_stream = CyclingStream(self.loaders[1])

    def step(self):
        batch = next(self._stream)
        loss = self.model.sequence_loss(batch) * batch.weight
        cl_loss, __ = self.model.contrastive_loss(self._cl_stream.next())
        weight = self.model.cl_config.cl_weight
        return loss + weight * cl_loss, len(batch.users), {
            "rec_loss": loss.item(),
            "cl_loss": weight * cl_loss.item(),
        }


class RowTableStage(NextItemStage):
    """A model's table of training rows, shuffled, with sampled negatives.

    BPR-MF, NCF, FPMC and Caser train on a flat table instead of padded
    histories.  The model supplies ``training_rows(dataset)`` (a
    :class:`~repro.data.loaders.RowBatch` table), ``num_negatives`` and
    ``row_loss(batch)``; negatives follow the next-item rule (uniform,
    or ∝ popularity^alpha).  Early stopping is :class:`NextItemStage`'s.
    """

    def _rows(self, rng):
        """``(row count, build)``: ``build(indices)`` makes one batch."""
        table = self.model.training_rows(self.dataset)
        sampler = self._popularity_sampler(rng) or NegativeSampler(
            self.dataset.num_items, rng
        )
        repeats = self.model.num_negatives

        def build(index):
            batch = table.take(index)
            batch.negatives = sampler.sample(np.repeat(batch.positives, repeats))
            return batch

        return len(table.users), build

    def _loaders(self, rng, obs=None, worker_shard=None):
        count, build = self._rows(rng)
        return [
            RowBatchLoader(
                count,
                self.config.batch_size,
                rng,
                build,
                obs=obs,
                worker_shard=worker_shard,
            )
        ]

    def step(self):
        batch = next(self._stream)
        return self.model.row_loss(batch), len(batch.users), {}


class FactorizationStage(RowTableStage):
    """BPR-MF and FPMC: the row table under a fixed L2 weight decay."""

    weight_decay = 1e-5


class ClozeStage(RowTableStage):
    """BERT4Rec's Cloze objective; a row is a history of two or more items.

    The model supplies ``make_cloze_batch(sequences, rng)`` and
    ``cloze_loss(inputs, labels)``; the masks draw from the loop
    generator.
    """

    def _rows(self, rng):
        sequences = self.dataset.train_sequences
        users = np.flatnonzero([len(sequence) >= 2 for sequence in sequences])

        def build(index):
            return self.model.make_cloze_batch(
                [sequences[user] for user in users[index]], rng
            )

        return len(users), build

    def step(self):
        inputs, labels = next(self._stream)
        return self.model.cloze_loss(inputs, labels), len(inputs), {}
