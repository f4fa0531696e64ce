"""Rotating checkpoint directories with newest-valid recovery.

Every archive is written and read through the one artifact layer
(:mod:`repro.nn.serialization`: atomic write, SHA-256 sidecar, format
stamp, ``allow_pickle=False``).  This module adds the policy a long run
on unreliable hardware needs on top:

* **Rotation** — :class:`CheckpointManager` keeps the newest K archives
  in a directory, so disk usage is bounded but a corrupted newest file
  still leaves K-1 fallbacks.
* **Recovery** — :meth:`CheckpointManager.load_latest_valid` walks
  checkpoints newest-first and returns the first one that passes
  verification, skipping (and reporting) corrupt ones.

The semantic packing of model/optimizer/RNG/history state lives in
:mod:`repro.runtime.resume`.  Consumers that only want the weights back
(serving) read them with :func:`load_model_state`.
"""

from __future__ import annotations

import os
import re
from typing import Mapping

import numpy as np

from repro.nn.serialization import (
    CheckpointError,
    read_archive,
    remove_archive,
    section,
    write_archive,
)
from repro.runtime.faults import FaultInjector


class CheckpointManager:
    """Rotating directory of verified checkpoints.

    Archives are named ``ckpt-<step>.npz`` where ``step`` is any
    monotone counter the caller chooses (the runtime uses "epochs
    completed").  ``keep`` bounds how many are retained; rotation
    deletes oldest-first after each successful save, so a failed save
    never costs an existing checkpoint.  The directory is created by the
    first save; until then a missing directory holds no checkpoints, so
    building a manager writes nothing to disk.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        keep: int = 3,
        faults: FaultInjector | None = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        self.faults = faults
        #: ``(path, reason)`` for archives skipped by the last recovery walk.
        self.skipped: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def path_for(self, step: int) -> str:
        """Archive path for checkpoint ``step``."""
        return os.path.join(self.directory, f"ckpt-{step:08d}.npz")

    def steps(self) -> list[int]:
        """Steps with an archive on disk, ascending (valid or not); none
        while the directory does not exist."""
        pattern = re.compile(r"ckpt-(\d+)\.npz$")
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        found = []
        for name in names:
            match = pattern.fullmatch(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_step(self) -> int | None:
        """Newest step on disk, or ``None`` when the directory is empty."""
        steps = self.steps()
        return steps[-1] if steps else None

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(self, step: int, arrays: Mapping[str, np.ndarray]) -> str:
        """Write checkpoint ``step`` and rotate; returns the path."""
        path = self.path_for(step)
        if self.faults is not None:
            self.faults.on_checkpoint_write(path)
        os.makedirs(self.directory, exist_ok=True)
        write_archive(path, arrays)
        self._rotate()
        return path

    def load(self, step: int) -> dict[str, np.ndarray]:
        """Load and verify one specific checkpoint."""
        path = self.path_for(step)
        if self.faults is not None:
            self.faults.on_checkpoint_read(path)
        return read_archive(path)

    def load_latest_valid(self) -> tuple[int, dict[str, np.ndarray]] | None:
        """Newest checkpoint that passes verification, or ``None``.

        Corrupt or unreadable archives are skipped (recorded in
        :attr:`skipped`) and the walk continues toward older ones —
        recovery degrades gracefully instead of failing on the first
        bad file.
        """
        self.skipped = []
        for step in reversed(self.steps()):
            path = self.path_for(step)
            try:
                return step, self.load(step)
            except (CheckpointError, OSError) as error:
                self.skipped.append((path, str(error)))
        return None

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _rotate(self) -> None:
        for step in self.steps()[: -self.keep]:
            remove_archive(self.path_for(step))


def load_model_state(checkpoint: str | os.PathLike) -> tuple[dict, int | None]:
    """Model state dict + source step from a checkpoint path.

    ``checkpoint`` is a :class:`CheckpointManager` directory (newest
    *valid* archive wins, corrupt ones are skipped) or a single ``.npz``
    archive: ``model/<param>`` keys, or a bare state dict.  Archives are
    checksum-verified on read; corruption raises
    :class:`~repro.nn.serialization.CheckpointError` instead of
    loading garbage.
    """
    checkpoint = os.fspath(checkpoint)
    step: int | None = None
    if os.path.isdir(checkpoint):
        recovered = CheckpointManager(checkpoint).load_latest_valid()
        if recovered is None:
            raise CheckpointError(
                f"{checkpoint}: no valid checkpoint archive found"
            )
        step, payload = recovered
    else:
        payload = read_archive(checkpoint)
    # ``model/<param>`` keys, else a bare state dict (no sections).
    state = section(payload, "model") or {
        name: values for name, values in payload.items() if "/" not in name
    }
    if not state:
        raise CheckpointError(
            f"{checkpoint}: archive holds no model parameters"
        )
    return state, step
