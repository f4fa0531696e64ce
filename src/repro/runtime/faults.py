"""Deterministic, seedable fault injection for robustness testing.

Training robustness claims are only as good as their tests, and real
faults (ENOSPC during a checkpoint write, a preempted worker, a NaN
loss from an fp blow-up) are hard to reproduce on demand.
:class:`FaultInjector` simulates them at well-defined *sites* inside
the runtime:

* ``checkpoint_write`` / ``checkpoint_read`` — an ``OSError`` raised at
  the Nth write/read attempt, as if the disk failed mid-operation.
* ``loss`` — the Nth observed loss value is replaced with NaN, as if
  the optimization diverged.
* ``step`` — :class:`SimulatedPreemption` raised after the Nth training
  step, as if the scheduler sent SIGTERM.

The serving stack (``repro.serve``) adds two sites of its own, hooked
into the engine's encoder micro-batches:

* ``encode`` — an injected ``RuntimeError`` from the Nth encoder
  forward (or at ``encode_failure_rate``), as if the model blew up on
  a bad input.
* ``encode_slow`` — the Nth encode (or every encode while
  ``encode_delay_s`` is set) is delayed, as if the host were
  CPU-starved.  Scheduled slow faults carry their delay in
  :attr:`Fault.payload`.

The rate/delay attributes are plain mutable floats so a chaos driver
(:mod:`repro.loadtest.chaos`) can open and close fault windows
mid-traffic.  Faults are scheduled deterministically by occurrence
index, or drawn from a seeded generator (``io_failure_rate``,
``encode_failure_rate``), so every test run sees the identical fault
sequence.  The injector also records everything it triggered
(:attr:`FaultInjector.triggered`) for assertions.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

SITES = (
    "checkpoint_write",
    "checkpoint_read",
    "loss",
    "step",
    "encode",
    "encode_slow",
    "worker_kill",
)

#: Exit status an injected ``worker_kill`` dies with — distinctive, so
#: tests and the coordinator's error message can tell an injected death
#: from a crash (1) or a signal (negative exitcode).
WORKER_KILL_EXIT_CODE = 43


class SimulatedPreemption(RuntimeError):
    """An injected preemption — the moral equivalent of SIGTERM.

    The training runtime converts it into a checkpoint flush followed
    by :class:`repro.runtime.resume.TrainingInterrupted`, exactly the
    path a real signal takes.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: trigger at the ``at``-th visit of ``site``.

    Occurrence indices are 1-based and global across the run (the
    third checkpoint write ever, the tenth loss ever observed, ...).
    ``payload`` carries per-fault data where the site needs it (the
    delay in seconds for ``encode_slow``).
    """

    site: str
    at: int
    payload: float | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (choose from {SITES})")
        if self.at < 1:
            raise ValueError(f"fault occurrence index must be >= 1, got {self.at}")


class FaultInjector:
    """Injects scheduled and/or seeded-random faults at runtime sites.

    The deterministic schedule is built with the chainable methods
    (:meth:`fail_write`, :meth:`preempt`, ...).

    Parameters
    ----------
    io_failure_rate:
        Probability that any checkpoint write/read fails with an
        injected ``OSError``, drawn from a generator seeded with
        ``seed`` — reproducible chaos testing.
    seed:
        Seed for the random-fault generator.
    """

    def __init__(
        self,
        io_failure_rate: float = 0.0,
        encode_failure_rate: float = 0.0,
        encode_delay_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.faults: list[Fault] = []
        if not 0.0 <= io_failure_rate <= 1.0:
            raise ValueError("io_failure_rate must be in [0, 1]")
        if not 0.0 <= encode_failure_rate <= 1.0:
            raise ValueError("encode_failure_rate must be in [0, 1]")
        if encode_delay_s < 0.0:
            raise ValueError("encode_delay_s must be non-negative")
        self.io_failure_rate = io_failure_rate
        #: Mutable rate/delay knobs — a chaos driver toggles these to
        #: open and close serving fault windows mid-traffic.
        self.encode_failure_rate = encode_failure_rate
        self.encode_delay_s = encode_delay_s
        self._rng = np.random.default_rng(seed)
        self._counts: dict[str, int] = defaultdict(int)
        self.triggered: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Schedule builders (chainable)
    # ------------------------------------------------------------------
    def fail_write(self, at: int) -> "FaultInjector":
        """Schedule an IO error on the ``at``-th checkpoint write."""
        self.faults.append(Fault("checkpoint_write", at))
        return self

    def fail_read(self, at: int) -> "FaultInjector":
        """Schedule an IO error on the ``at``-th checkpoint read."""
        self.faults.append(Fault("checkpoint_read", at))
        return self

    def nan_loss(self, at: int) -> "FaultInjector":
        """Replace the ``at``-th observed loss with NaN."""
        self.faults.append(Fault("loss", at))
        return self

    def preempt(self, at: int) -> "FaultInjector":
        """Simulate preemption right after the ``at``-th training step."""
        self.faults.append(Fault("step", at))
        return self

    def kill_worker(self, at: int, worker: int = 0) -> "FaultInjector":
        """Kill training worker ``worker`` at its ``at``-th parallel step.

        The occurrence index counts *that worker's own* steps (fork
        isolates each worker's injector copy, so the count is
        per-process by construction); the process dies with
        :data:`WORKER_KILL_EXIT_CODE` via ``os._exit`` — no cleanup, no
        goodbye, exactly like an OOM kill.  The coordinator is expected
        to raise :class:`repro.train.parallel.WorkerFailedError`.
        """
        self.faults.append(Fault("worker_kill", at, payload=float(worker)))
        return self

    def fail_encode(self, at: int) -> "FaultInjector":
        """Schedule an injected exception on the ``at``-th encoder forward."""
        self.faults.append(Fault("encode", at))
        return self

    def slow_encode(self, at: int, seconds: float) -> "FaultInjector":
        """Schedule a ``seconds`` delay on the ``at``-th encoder forward."""
        if seconds < 0.0:
            raise ValueError(f"delay must be non-negative, got {seconds}")
        self.faults.append(Fault("encode_slow", at, payload=seconds))
        return self

    # ------------------------------------------------------------------
    # Sites (called by the runtime)
    # ------------------------------------------------------------------
    def _scheduled(self, site: str, count: int) -> Fault | None:
        for fault in self.faults:
            if fault.site == site and fault.at == count:
                return fault
        return None

    def _visit(self, site: str) -> bool:
        self._counts[site] += 1
        count = self._counts[site]
        hit = self._scheduled(site, count) is not None
        if (
            not hit
            and self.io_failure_rate > 0.0
            and site in ("checkpoint_write", "checkpoint_read")
        ):
            hit = bool(self._rng.random() < self.io_failure_rate)
        if not hit and self.encode_failure_rate > 0.0 and site == "encode":
            hit = bool(self._rng.random() < self.encode_failure_rate)
        if hit:
            self.triggered.append((site, count))
        return hit

    def on_checkpoint_write(self, path: str | os.PathLike) -> None:
        """Raise an injected ``OSError`` if this write is scheduled to fail."""
        if self._visit("checkpoint_write"):
            raise OSError(f"injected IO error writing {os.fspath(path)}")

    def on_checkpoint_read(self, path: str | os.PathLike) -> None:
        """Raise an injected ``OSError`` if this read is scheduled to fail."""
        if self._visit("checkpoint_read"):
            raise OSError(f"injected IO error reading {os.fspath(path)}")

    def loss_value(self, value: float) -> float:
        """Pass a loss through; returns NaN when the fault fires."""
        if self._visit("loss"):
            return float("nan")
        return value

    def on_step(self) -> None:
        """Raise :class:`SimulatedPreemption` when the fault fires."""
        if self._visit("step"):
            raise SimulatedPreemption(
                f"injected preemption after step {self._counts['step']}"
            )

    def on_worker_step(self, worker: int) -> None:
        """Die hard when this worker's scheduled kill fires.

        Called by every training worker at each ``step`` command with
        its own id; only a fault whose payload names this worker
        triggers.  ``triggered`` records the hit, but only in the dying
        worker's (forked) injector copy — the coordinator observes the
        death through its :class:`WorkerFailedError` instead.
        """
        self._counts["worker_kill"] += 1
        count = self._counts["worker_kill"]
        for fault in self.faults:
            if (
                fault.site == "worker_kill"
                and fault.at == count
                and int(fault.payload or 0.0) == int(worker)
            ):
                self.triggered.append(("worker_kill", count))
                os._exit(WORKER_KILL_EXIT_CODE)

    def on_encode(self) -> None:
        """Raise an injected ``RuntimeError`` when the encode fault fires."""
        if self._visit("encode"):
            raise RuntimeError(
                f"injected encoder failure at forward {self._counts['encode']}"
            )

    def encode_delay(self) -> float:
        """Seconds the current encoder forward should be delayed.

        Scheduled ``encode_slow`` faults (with their per-fault delay
        payload) win over the ambient ``encode_delay_s`` window knob;
        returns 0.0 when neither applies.
        """
        self._counts["encode_slow"] += 1
        count = self._counts["encode_slow"]
        fault = self._scheduled("encode_slow", count)
        if fault is not None:
            self.triggered.append(("encode_slow", count))
            return float(fault.payload or 0.0)
        if self.encode_delay_s > 0.0:
            self.triggered.append(("encode_slow", count))
            return self.encode_delay_s
        return 0.0

    # ------------------------------------------------------------------
    # File corruption helper (for tests)
    # ------------------------------------------------------------------
    @staticmethod
    def corrupt_file(
        path: str | os.PathLike,
        *,
        truncate_to: int | None = None,
        flip_byte_at: int | None = None,
    ) -> None:
        """Damage a file in place: truncate it and/or flip one byte.

        With no keyword, truncates to half its size — the classic
        "machine died mid-write of a non-atomic checkpoint" shape.
        """
        path = os.fspath(path)
        size = os.path.getsize(path)
        if truncate_to is None and flip_byte_at is None:
            truncate_to = size // 2
        if truncate_to is not None:
            with open(path, "r+b") as handle:
                handle.truncate(truncate_to)
        if flip_byte_at is not None:
            if not 0 <= flip_byte_at < size:
                raise ValueError(f"flip offset {flip_byte_at} outside file of {size} bytes")
            with open(path, "r+b") as handle:
                handle.seek(flip_byte_at)
                byte = handle.read(1)
                handle.seek(flip_byte_at)
                handle.write(bytes([byte[0] ^ 0xFF]))
