"""Resumable training: periodic checkpoints, signal handling, recovery.

:class:`TrainingRuntime` is the object the training loop
(:func:`repro.train.loop.run_training`, behind
:func:`repro.core.trainer.pretrain_contrastive`,
:func:`repro.core.trainer.train_joint` and
:func:`repro.models.training.train_next_item_model`) threads its hooks
through.  It owns:

* **Periodic checkpoints** — model + optimizer + lr-schedule + epoch
  counter + NumPy RNG state + history, packed into one flat archive and
  written through a :class:`~repro.runtime.checkpointing.CheckpointManager`
  every ``checkpoint_every`` epochs.
* **Resume** — :meth:`start` recovers from the newest *valid* archive
  and restores every piece in place, so an interrupted run continues
  bit-for-bit identical to an uninterrupted one (checkpoints capture
  epoch boundaries; a run killed mid-epoch replays that epoch from its
  start with the epoch-start RNG state).
* **Graceful shutdown** — SIGTERM/SIGINT set a flag; at the next step
  boundary the runtime flushes the last epoch-boundary snapshot to disk
  and raises :class:`TrainingInterrupted`.  Injected preemptions
  (:class:`repro.runtime.faults.SimulatedPreemption`) take the same
  path, so tests exercise exactly the production code.
* **Divergence protection** — a
  :class:`~repro.runtime.guards.DivergenceGuard` re-snapshotted at each
  epoch start; see :meth:`allow_update`.

Archive layout (flat ``name -> array``): ``meta/*`` counters,
``model/<param>``, ``optim/<buffer>``, ``sched/<field>``, ``rng/state``
(JSON), ``hist/<list>``, ``extra/<scalar>``, ``aux/<group>/<name>``.
"""

from __future__ import annotations

import json
import signal
import time
from contextlib import contextmanager
from typing import Iterator, MutableMapping, Sequence

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import LinearDecaySchedule, Optimizer
from repro.nn.serialization import CheckpointError, load_into, section
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import FaultInjector, SimulatedPreemption
from repro.runtime.guards import DivergenceGuard

_HANDLED_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class TrainingInterrupted(RuntimeError):
    """Training stopped early on a signal or simulated preemption.

    The final checkpoint was flushed before this was raised; re-running
    with the same configuration and ``resume=True`` continues the run.
    """

    def __init__(self, message: str, epoch: int) -> None:
        super().__init__(message)
        self.epoch = epoch


def _spawn_count(rng: np.random.Generator) -> int | None:
    """Children spawned from ``rng`` so far (None without a SeedSequence)."""
    return getattr(rng.bit_generator.seed_seq, "n_children_spawned", None)


def capture_rng_states(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Serialize generator states to one JSON string array (npz-safe).

    Each entry is the bit-generator state plus the generator's spawn
    count: ``bit_generator.state`` alone does not say how many child
    streams were spawned, and the vectorized augmenter spawns one per
    batch.
    """
    return np.asarray(
        json.dumps(
            [
                {**rng.bit_generator.state, "n_children_spawned": _spawn_count(rng)}
                for rng in rngs
            ]
        )
    )


def restore_rng_states(
    rngs: Sequence[np.random.Generator], packed: np.ndarray
) -> None:
    """Restore generator states captured by :func:`capture_rng_states`.

    A generator that has spawned fewer children than the checkpoint
    recorded is fast-forwarded, so its next child is the one the
    interrupted run would have drawn.  Entries without a spawn count
    (older checkpoints) restore the bit state only.
    """
    states = json.loads(str(packed))
    if len(states) != len(rngs):
        raise CheckpointError(
            f"checkpoint holds {len(states)} RNG states, run has {len(rngs)}"
        )
    for rng, state in zip(rngs, states):
        spawned = state.pop("n_children_spawned", None) or 0
        rng.bit_generator.state = state
        behind = spawned - (_spawn_count(rng) or 0)
        if behind > 0:
            rng.spawn(behind)


class TrainingRuntime:
    """Fault-tolerance harness threaded through the training loops.

    Parameters
    ----------
    manager:
        Where checkpoints live (rotation + recovery included).
    checkpoint_every:
        Write a checkpoint every N completed epochs (0 disables the
        periodic writes; interrupt flushes still happen).
    resume:
        Attempt recovery from the newest valid checkpoint in
        :meth:`start`; with False, training always starts fresh.
    guard:
        Enable the per-step :class:`DivergenceGuard`.
    faults:
        Optional :class:`FaultInjector` for robustness tests; it is
        also handed to the manager if the manager has none.
    handle_signals:
        Install SIGTERM/SIGINT handlers for the duration of the loop
        (skipped automatically off the main thread).
    obs:
        Optional :class:`repro.obs.RunObserver`; records
        ``checkpoint.write_seconds`` latencies plus ``checkpoint_saved``,
        ``checkpoint_write_failed``, ``divergence_rollback`` and
        ``resume`` events (schema in ``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        manager: CheckpointManager,
        checkpoint_every: int = 1,
        resume: bool = True,
        guard: bool = True,
        faults: FaultInjector | None = None,
        handle_signals: bool = True,
        obs=None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.manager = manager
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.guard_enabled = guard
        self.faults = faults
        if faults is not None and manager.faults is None:
            manager.faults = faults
        self.handle_signals = handle_signals
        self.obs = obs

        self.guard: DivergenceGuard | None = None
        self.interrupted = False
        self.resumed_from: int | None = None
        #: Periodic checkpoint writes that failed (training continues —
        #: older checkpoints stay usable; inspect/alert on this list).
        self.write_failures: list[str] = []
        self._epoch = 0
        self._global_step = 0
        self._flush_payload: dict[str, np.ndarray] | None = None
        self._last_written: int | None = None

        # Bound by start():
        self._model: Module | None = None
        self._optimizer: Optimizer | None = None
        self._schedule: LinearDecaySchedule | None = None
        self._rngs: list[np.random.Generator] = []
        self._history: dict[str, list[float]] = {}
        self._extras: MutableMapping[str, float] | None = None
        self._aux: MutableMapping[str, dict[str, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        model: Module,
        optimizer: Optimizer,
        schedule: LinearDecaySchedule | None = None,
        rngs: Sequence[np.random.Generator] = (),
        history: dict[str, list[float]] | None = None,
        extras: MutableMapping[str, float] | None = None,
        aux: MutableMapping[str, dict[str, np.ndarray]] | None = None,
    ) -> int:
        """Bind the live training state and attempt resume.

        ``history`` maps names to the loop's live metric lists (mutated
        in place on restore), ``extras`` is a dict of scalar loop state
        (early-stopping counters, ...), ``aux`` holds named groups of
        extra arrays (e.g. the best-validation model state).  Returns
        the epoch to start from: 0 fresh, or the checkpoint's epoch.
        """
        self._model = model
        self._optimizer = optimizer
        self._schedule = schedule
        deduped: list[np.random.Generator] = []
        for rng in rngs:
            if all(rng is not seen for seen in deduped):
                deduped.append(rng)
        self._rngs = deduped
        self._history = dict(history or {})
        self._extras = extras
        self._aux = aux
        if self.guard_enabled:
            self.guard = DivergenceGuard(model, optimizer, schedule)

        start_epoch = 0
        if self.resume:
            recovered = self.manager.load_latest_valid()
            if recovered is not None:
                step, payload = recovered
                start_epoch = self._unpack(payload)
                self.resumed_from = step
                if self.obs is not None:
                    self.obs.increment("resumes")
                    self.obs.event(
                        "resume",
                        epoch=start_epoch,
                        checkpoint_step=step,
                        directory=self.manager.directory,
                    )
        self._epoch = start_epoch
        if self.guard is not None:
            self.guard.snapshot()
        # The pre-first-epoch state is the fallback for an interrupt
        # that arrives before the first end_epoch.
        self._flush_payload = self._pack(next_epoch=start_epoch)
        return start_epoch

    def begin_epoch(self, epoch: int) -> None:
        """Snapshot the epoch-start state (rollback + interrupt flush)."""
        self._require_started()
        self._epoch = epoch
        if self.guard is not None:
            self.guard.snapshot()
        self._flush_payload = self._pack(next_epoch=epoch)

    def intercept_loss(self, value: float) -> float:
        """Fault-injection hook: may replace the loss with NaN."""
        if self.faults is not None:
            return self.faults.loss_value(value)
        return value

    def allow_update(self, loss_value: float, grad_norm: float | None = None) -> bool:
        """Guard check; False means rolled back — skip this update."""
        if self.guard is None:
            return True
        allowed = self.guard.observe(loss_value, grad_norm)
        if not allowed and self.obs is not None:
            self.obs.increment("divergence_rollbacks")
            self.obs.event(
                "divergence_rollback",
                epoch=self._epoch,
                global_step=self._global_step,
                loss=loss_value,
                grad_norm=grad_norm,
                total_rollbacks=self.guard.total_rollbacks,
            )
        return allowed

    def after_step(self) -> None:
        """Advance the step counter; honor preemptions and signals."""
        self._global_step += 1
        if self.faults is not None:
            try:
                self.faults.on_step()
            except SimulatedPreemption as preempt:
                self._flush()
                raise TrainingInterrupted(
                    f"{preempt} — checkpoint flushed, resume to continue",
                    epoch=self._epoch,
                ) from preempt
        if self.interrupted:
            self._flush()
            raise TrainingInterrupted(
                "signal received — checkpoint flushed, resume to continue",
                epoch=self._epoch,
            )

    def end_epoch(self, epoch: int) -> None:
        """Record epoch completion; write the periodic checkpoint."""
        self._require_started()
        self._flush_payload = self._pack(next_epoch=epoch + 1)
        if self.checkpoint_every and (epoch + 1) % self.checkpoint_every == 0:
            try:
                self._write(epoch + 1)
            except OSError as error:
                # A failed periodic write must not kill the run: rotation
                # never deletes on failure, so older checkpoints survive.
                self.write_failures.append(str(error))

    def finalize(self) -> None:
        """Flush the final state if the last epoch wasn't checkpointed."""
        if self._flush_payload is not None:
            step = int(self._flush_payload["meta/next_epoch"])
            if self._last_written != step:
                try:
                    self._write(step)
                except OSError as error:
                    self.write_failures.append(str(error))

    @contextmanager
    def session(self) -> Iterator["TrainingRuntime"]:
        """Install signal handlers for the duration of the loop body."""
        installed: list[tuple[signal.Signals, object]] = []
        if self.handle_signals:
            def _on_signal(signum, frame):  # noqa: ARG001 - signal API
                self.interrupted = True

            for signum in _HANDLED_SIGNALS:
                try:
                    installed.append((signum, signal.signal(signum, _on_signal)))
                except ValueError:
                    break  # not the main thread — run without handlers
        try:
            yield self
        finally:
            for signum, previous in installed:
                signal.signal(signum, previous)

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if self._model is None or self._optimizer is None:
            raise RuntimeError("TrainingRuntime.start() was never called")

    def _pack(self, next_epoch: int) -> dict[str, np.ndarray]:
        payload: dict[str, np.ndarray] = {
            "meta/next_epoch": np.asarray(next_epoch),
            "meta/global_step": np.asarray(self._global_step),
        }
        for name, values in self._model.state_dict().items():
            payload[f"model/{name}"] = values
        for name, values in self._optimizer.state_dict().items():
            payload[f"optim/{name}"] = np.array(values, copy=True)
        if self._schedule is not None:
            for name, values in self._schedule.state_dict().items():
                payload[f"sched/{name}"] = values
        if self._rngs:
            payload["rng/state"] = capture_rng_states(self._rngs)
        for name, series in self._history.items():
            payload[f"hist/{name}"] = np.asarray(list(series), dtype=np.float64)
        for name, value in (self._extras or {}).items():
            payload[f"extra/{name}"] = np.asarray(float(value))
        for group, arrays in (self._aux or {}).items():
            for name, values in arrays.items():
                payload[f"aux/{group}/{name}"] = np.array(values, copy=True)
        return payload

    def _unpack(self, payload: dict[str, np.ndarray]) -> int:
        where = self.manager.directory
        load_into(self._model, section(payload, "model"), where)
        load_into(self._optimizer, section(payload, "optim"), where)
        if self._schedule is not None:
            sched = section(payload, "sched")
            if sched:
                self._schedule.load_state_dict(sched)
        if self._rngs and "rng/state" in payload:
            restore_rng_states(self._rngs, payload["rng/state"])
        for name, series in self._history.items():
            series.clear()
            series.extend(float(v) for v in payload.get(f"hist/{name}", ()))
        if self._extras is not None:
            for name, value in section(payload, "extra").items():
                self._extras[name] = float(value)
        if self._aux is not None:
            groups: dict[str, dict[str, np.ndarray]] = {}
            for name, values in section(payload, "aux").items():
                group, __, array_name = name.partition("/")
                groups.setdefault(group, {})[array_name] = values
            self._aux.clear()
            self._aux.update(groups)
        self._global_step = int(payload.get("meta/global_step", 0))
        return int(payload["meta/next_epoch"])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _write(self, step: int) -> None:
        started = time.perf_counter()
        try:
            path = self.manager.save(step, self._flush_payload)
        except OSError as error:
            if self.obs is not None:
                self.obs.increment("checkpoint_write_failures")
                self.obs.event(
                    "checkpoint_write_failed", step=step, error=str(error)
                )
            raise
        seconds = time.perf_counter() - started
        self._last_written = step
        if self.obs is not None:
            self.obs.observe("checkpoint.write_seconds", seconds)
            self.obs.increment("checkpoints_written")
            self.obs.event(
                "checkpoint_saved", step=step, seconds=seconds, path=path
            )

    def _flush(self) -> None:
        """Best-effort final checkpoint of the last epoch boundary."""
        if self._flush_payload is None:
            return
        step = int(self._flush_payload["meta/next_epoch"])
        if self._last_written == step:
            return
        try:
            self._write(step)
        except OSError:
            # An interrupt flush racing a dying disk must not mask the
            # interruption itself; older checkpoints remain usable.
            pass
