"""Fault-tolerant training runtime.

Crash-safe checkpointing, bit-exact resume, divergence guards, and a
deterministic fault-injection harness — the robustness layer between
the nn substrate and the training loops:

* :mod:`repro.runtime.checkpointing` — last-K rotation and
  recover-from-newest-valid over the one artifact layer
  (:mod:`repro.nn.serialization`: atomic writes, content checksums).
* :mod:`repro.runtime.resume` — :class:`TrainingRuntime`: periodic
  checkpoint hooks, SIGTERM/SIGINT flush-and-exit, resume that restores
  model + optimizer + schedule + RNG + history in place.
* :mod:`repro.runtime.guards` — :class:`DivergenceGuard`: per-step
  loss/gradient finiteness checks with rollback and lr backoff.
* :mod:`repro.runtime.faults` — :class:`FaultInjector`: seedable IO
  errors, forced NaN losses, simulated preemption.

See ``docs/ROBUSTNESS.md`` for the checkpoint format and semantics.
"""

from repro.nn.serialization import CheckpointError
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import Fault, FaultInjector, SimulatedPreemption
from repro.runtime.guards import DivergenceError, DivergenceGuard
from repro.runtime.resume import (
    TrainingInterrupted,
    TrainingRuntime,
    capture_rng_states,
    restore_rng_states,
)

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "DivergenceError",
    "DivergenceGuard",
    "Fault",
    "FaultInjector",
    "SimulatedPreemption",
    "TrainingInterrupted",
    "TrainingRuntime",
    "capture_rng_states",
    "restore_rng_states",
]
