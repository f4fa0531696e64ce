"""The one training loop behind every trained model.

:func:`run_training` is the epoch skeleton — Adam + linear decay +
clipping, :class:`~repro.runtime.resume.TrainingRuntime` hooks
(checkpoints, resume, signal flush, divergence rollback), obs epoch
events, early stop — written once.  What differs between regimes lives
in a :class:`~repro.train.stages.Stage`; what differs between
``workers=0`` and ``workers=N`` is only **where the gradient of a step
comes from**:

* :class:`InProcessSource` (``workers=0``) — the stage runs forward and
  backward here; gradients stay on the parameters;
* :class:`~repro.train.parallel.ParallelWorkerPool` (``workers=N``) —
  forked workers run the same stage class on their user shard and the
  pool allreduces their gradients onto the parameters.

Both expose ``steps_per_epoch``, ``rngs``, ``begin_epoch``, ``step``,
``capture_rng`` / ``restore_rng`` and ``close``; the loop never asks
which one it has.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.nn.optim import Adam, GradientClipper, LinearDecaySchedule

__all__ = ["InProcessSource", "run_training"]


def _emit_epoch(
    obs,
    event: str,
    stage: str,
    epoch: int,
    loss: float,
    batches: int,
    sequences: int,
    grad_norm_sum: float,
    seconds: float,
    lr: float,
    **extra,
) -> None:
    """Record one epoch into a :class:`repro.obs.RunObserver`.

    Emits the per-epoch event (loss components, mean grad norm,
    sequences/sec throughput, wall time, current lr) and feeds the
    aggregate registry instruments (`train.epoch_seconds` histogram,
    `train_epochs` / `train_batches` / `train_sequences` counters).
    """
    obs.event(
        event,
        stage=stage,
        epoch=epoch,
        loss=loss,
        batches=batches,
        sequences=sequences,
        grad_norm=grad_norm_sum / max(1, batches),
        items_per_sec=sequences / seconds if seconds > 0 else 0.0,
        epoch_seconds=seconds,
        lr=lr,
        **extra,
    )
    obs.observe("train.epoch_seconds", seconds)
    obs.increment("train_epochs")
    obs.increment("train_batches", batches)
    obs.increment("train_sequences", sequences)


class InProcessSource:
    """``workers=0``: the stage computes each step's gradient right here.

    Gradients stay on the parameters (no copy, no page publish) and the
    step's scalars are reported as the stage produced them — never as a
    row-weighted mean of one, which is not always the same float.
    """

    #: Fields added to every epoch event / per-worker epoch statistics.
    event_fields: dict = {}
    worker_stats: tuple = ()

    def __init__(self, stage, rng: np.random.Generator, obs=None) -> None:
        stage.open(rng, obs=obs)
        self.stage = stage
        self.steps_per_epoch = stage.steps_per_epoch
        self.rngs = stage.rngs

    def capture_rng(self, aux) -> None:
        """Nothing to add: every stream is in :attr:`rngs`."""

    def restore_rng(self, aux) -> None:
        """Nothing to restore beyond :attr:`rngs`."""

    def begin_epoch(self, epoch: int) -> None:
        self.stage.begin_epoch()

    def step(self, index: int):
        return self.stage.compute()

    def close(self) -> None:
        """Nothing to release: no process, thread or segment was opened."""


def _gradient_source(stage, rng, runtime, obs):
    workers = int(stage.config.workers)
    if not workers:
        return InProcessSource(stage, rng, obs)
    # Imported on demand so a workers=0 run never loads multiprocessing
    # or the shared-memory machinery.
    from repro.train.parallel import ParallelWorkerPool

    faults = runtime.faults if runtime is not None else None
    return ParallelWorkerPool(stage, rng, workers, faults=faults, obs=obs)


def run_training(stage_cls, model, dataset, config, rng=None, runtime=None, obs=None):
    """Train ``model`` under one regime and return that regime's history.

    ``stage_cls`` is the :class:`~repro.train.stages.Stage` subclass to
    run; ``config.workers`` picks the gradient source.  ``runtime`` (a
    :class:`repro.runtime.resume.TrainingRuntime`) adds periodic
    checkpoints, bit-exact resume and divergence rollback — interrupted
    runs raise :class:`repro.runtime.resume.TrainingInterrupted` after
    flushing a final checkpoint.  ``obs`` needs only ``event``,
    ``observe`` and ``increment``; it receives one ``stage.event`` per
    epoch.  The model trains in its parameters' precision (float32,
    :mod:`repro.nn.precision`); nothing here casts it.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    stage = stage_cls(model, dataset, config)
    # Built before runtime.start: building spawns the loaders' (and the
    # workers') RNG streams, which a resume then restores in place.
    source = _gradient_source(stage, rng, runtime, obs)
    try:
        optimizer = Adam(
            stage.params, lr=config.learning_rate, weight_decay=stage.weight_decay
        )
        schedule = LinearDecaySchedule(
            optimizer,
            total_steps=max(1, config.epochs * source.steps_per_epoch),
            final_factor=config.lr_final_factor,
        )
        clipper = GradientClipper(stage.params, config.clip_norm)

        start_epoch = 0
        if runtime is not None:
            start_epoch = runtime.start(
                model=model,
                optimizer=optimizer,
                schedule=schedule,
                rngs=source.rngs,
                history=stage.hist,
                extras=stage.extras,
                aux=stage.aux,
            )
            source.restore_rng(stage.aux)
            start_epoch = stage.resume(start_epoch)

        model.train()
        with runtime.session() if runtime is not None else nullcontext():
            for epoch in range(start_epoch, config.epochs):
                # Worker streams are captured at epoch start (before
                # the epoch's permutations are drawn) so an interrupt
                # mid-epoch resumes by replaying the epoch bit-exactly.
                source.capture_rng(stage.aux)
                if runtime is not None:
                    runtime.begin_epoch(epoch)
                epoch_started = time.perf_counter()
                loss_sum, grad_norm_sum, batches, sequences = 0.0, 0.0, 0, 0
                sums = dict.fromkeys(stage.metrics, 0.0)
                source.begin_epoch(epoch)
                for step in range(source.steps_per_epoch):
                    loss_value, rows, metrics = source.step(step)
                    grad_norm = clipper.clip()
                    if runtime is not None:
                        loss_value = runtime.intercept_loss(loss_value)
                        if not runtime.allow_update(loss_value, grad_norm):
                            optimizer.zero_grad()
                            runtime.after_step()
                            continue
                    optimizer.step()
                    schedule.step()
                    loss_sum += loss_value
                    for name in sums:
                        sums[name] += metrics[name]
                    grad_norm_sum += grad_norm
                    sequences += rows
                    batches += 1
                    if runtime is not None:
                        runtime.after_step()

                loss = loss_sum / max(1, batches)
                means = {name: total / max(1, batches) for name, total in sums.items()}
                if obs is not None:
                    _emit_epoch(
                        obs,
                        stage.event,
                        stage=stage.label,
                        epoch=epoch,
                        loss=loss,
                        batches=batches,
                        sequences=sequences,
                        grad_norm_sum=grad_norm_sum,
                        seconds=time.perf_counter() - epoch_started,
                        lr=optimizer.lr,
                        **source.event_fields,
                        **means,
                        **stage.event_fields,
                    )
                    for worker, stats in enumerate(source.worker_stats):
                        obs.event(
                            "parallel_worker",
                            stage=stage.label,
                            epoch=epoch,
                            worker=worker,
                            steps=stats["steps"],
                            sequences=stats["sequences"],
                            compute_seconds=stats["seconds"],
                            items_per_sec=(
                                stats["sequences"] / stats["seconds"]
                                if stats["seconds"] > 0
                                else 0.0
                            ),
                        )
                stop = stage.end_epoch(epoch, loss, means, obs)
                source.capture_rng(stage.aux)
                if runtime is not None:
                    runtime.end_epoch(epoch)
                if stop:
                    break
        if runtime is not None:
            runtime.finalize()
    finally:
        source.close()
    stage.finish()
    model.eval()
    return stage.history
