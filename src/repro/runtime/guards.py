"""Divergence detection and rollback for training loops.

A single NaN loss, left unchecked, propagates through Adam's moment
buffers into every parameter within a handful of steps and silently
ruins the rest of the run.  :class:`DivergenceGuard` checks the loss
(and the pre-clip gradient norm reported by
:class:`repro.nn.optim.GradientClipper`) for finiteness every step.  On
a violation it rolls model, optimizer and lr-schedule state back to the
last good snapshot, shrinks the learning rate, and lets training
continue — up to a bounded number of retries per snapshot, after which
it raises :class:`DivergenceError` so the failure is loud.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import LinearDecaySchedule, Optimizer


class DivergenceError(RuntimeError):
    """Training diverged and exhausted its rollback retries."""


class DivergenceGuard:
    """Per-step finiteness watchdog with snapshot rollback.

    Parameters
    ----------
    model, optimizer, schedule:
        The live training state to snapshot and roll back.
    """

    #: Rollbacks allowed per snapshot before :class:`DivergenceError`.
    max_retries = 3
    #: Learning-rate multiplier applied per rollback (compounding: after
    #: the second rollback from one snapshot the lr is ``lr_backoff**2``
    #: of the snapshot's).
    lr_backoff = 0.5

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        schedule: LinearDecaySchedule | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule
        self.retries_used = 0  # rollbacks since the current snapshot
        self.total_rollbacks = 0  # across the whole run (for reporting)
        self._snapshot: dict | None = None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Capture the current state as the rollback point.

        Called by the runtime at every epoch start and after every
        restore; resets the per-snapshot retry budget.
        """
        self._snapshot = {
            "model": self.model.state_dict(),  # state_dict() already copies
            "optim": {
                name: np.array(values, copy=True)
                for name, values in self.optimizer.state_dict().items()
            },
            "sched": self.schedule.state_dict() if self.schedule else None,
        }
        self.retries_used = 0

    @staticmethod
    def is_finite(*values: float) -> bool:
        """True when every value is present and finite (None passes)."""
        return all(value is None or math.isfinite(value) for value in values)

    # ------------------------------------------------------------------
    # Per-step check
    # ------------------------------------------------------------------
    def observe(self, loss_value: float, grad_norm: float | None = None) -> bool:
        """Check one step; returns True when the update may proceed.

        On a non-finite loss or gradient norm, rolls back to the last
        snapshot with a reduced lr and returns False — the caller must
        skip ``optimizer.step()`` for this batch.  Raises
        :class:`DivergenceError` when the retry budget is exhausted or
        no snapshot exists.
        """
        if self.is_finite(loss_value, grad_norm):
            return True
        self.retries_used += 1
        self.total_rollbacks += 1
        if self._snapshot is None:
            raise DivergenceError(
                f"non-finite loss {loss_value!r} before any snapshot was taken"
            )
        if self.retries_used > self.max_retries:
            raise DivergenceError(
                f"training diverged {self.retries_used} times since the last "
                f"good snapshot (budget {self.max_retries}); latest loss "
                f"{loss_value!r}, grad norm {grad_norm!r}"
            )
        self._rollback()
        return False

    def _rollback(self) -> None:
        snap = self._snapshot
        self.model.load_state_dict(snap["model"])
        self.optimizer.load_state_dict(snap["optim"])
        if self.schedule is not None and snap["sched"] is not None:
            self.schedule.load_state_dict(snap["sched"])
        # Compounding backoff: the schedule recomputes optimizer.lr from
        # initial_lr on its next step, so shrink both.
        factor = self.lr_backoff**self.retries_used
        self.optimizer.lr = float(snap["optim"]["__lr__"]) * factor
        if self.schedule is not None:
            self.schedule.initial_lr = float(snap["sched"]["initial_lr"]) * factor
