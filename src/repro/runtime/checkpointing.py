"""Crash-safe checkpoint archives with checksums, rotation and recovery.

The nn layer (:mod:`repro.nn.checkpoint`) knows how to serialize one
model + optimizer into one ``.npz``.  This module adds what a long run
on unreliable hardware needs on top:

* **Atomic writes** — temp file + fsync + ``os.replace``; a crash never
  leaves a half-written archive under the final name.
* **Content checksums** — every archive gets a ``<name>.npz.sha256``
  sidecar; silent corruption (bit rot, partial copies) is detected at
  load time instead of surfacing as a NumPy error deep inside training.
* **Rotation** — :class:`CheckpointManager` keeps the newest K archives
  in a directory, so disk usage is bounded but a corrupted newest file
  still leaves K-1 fallbacks.
* **Recovery** — :meth:`CheckpointManager.load_latest_valid` walks
  checkpoints newest-first and returns the first one that passes
  verification, skipping (and reporting) corrupt ones.

Archives are flat ``name -> array`` dicts; the semantic packing of
model/optimizer/RNG/history state lives in :mod:`repro.runtime.resume`.
Consumers that only want the weights back (serving) read them with
:func:`load_model_state`.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Mapping

import numpy as np

from repro.nn.serialization import CheckpointError, atomic_write, atomic_write_bytes
from repro.runtime.faults import FaultInjector

CHECKSUM_SUFFIX = ".sha256"


def file_sha256(path: str | os.PathLike) -> str:
    """Hex SHA-256 of a file's content, streamed."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_archive(
    path: str | os.PathLike,
    arrays: Mapping[str, np.ndarray],
    faults: FaultInjector | None = None,
) -> None:
    """Atomically write an ``.npz`` archive plus its checksum sidecar.

    The archive lands first, the sidecar second (both atomic).  A crash
    between the two leaves a new archive with a stale sidecar, which
    verification treats as corrupt — recovery then falls back to an
    older checkpoint, never to garbage.
    """
    if faults is not None:
        faults.on_checkpoint_write(path)
    payload = {name: np.asarray(values) for name, values in arrays.items()}
    atomic_write(path, lambda handle: np.savez(handle, **payload))
    atomic_write_bytes(
        f"{os.fspath(path)}{CHECKSUM_SUFFIX}",
        (file_sha256(path) + "\n").encode("ascii"),
    )


def verify_archive(path: str | os.PathLike) -> None:
    """Raise :class:`CheckpointError` unless ``path`` matches its checksum.

    A missing sidecar is accepted (plain archives written by
    :mod:`repro.nn.checkpoint` have none); a *mismatching* one is
    corruption.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise CheckpointError(f"{path}: checkpoint does not exist")
    sidecar = path + CHECKSUM_SUFFIX
    if not os.path.exists(sidecar):
        return
    with open(sidecar) as handle:
        expected = handle.read().strip()
    actual = file_sha256(path)
    if actual != expected:
        raise CheckpointError(
            f"{path}: checksum mismatch (expected {expected[:12]}…, "
            f"got {actual[:12]}…) — archive is corrupt"
        )


def read_archive(
    path: str | os.PathLike,
    faults: FaultInjector | None = None,
) -> dict[str, np.ndarray]:
    """Load an archive written by :func:`write_archive`, verified.

    Raises :class:`CheckpointError` on checksum mismatch or an archive
    that fails to parse (truncated zip, bad header, ...).
    """
    if faults is not None:
        faults.on_checkpoint_read(path)
    verify_archive(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name].copy() for name in archive.files}
    except CheckpointError:
        raise
    except Exception as error:
        raise CheckpointError(
            f"{os.fspath(path)}: unreadable checkpoint archive: {error}"
        ) from error


class CheckpointManager:
    """Rotating directory of verified checkpoints.

    Archives are named ``<prefix>-<step>.npz`` where ``step`` is any
    monotone counter the caller chooses (the runtime uses "epochs
    completed").  ``keep`` bounds how many are retained; rotation
    deletes oldest-first after each successful save, so a failed save
    never costs an existing checkpoint.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        keep: int = 3,
        prefix: str = "ckpt",
        faults: FaultInjector | None = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        if not re.fullmatch(r"[A-Za-z0-9_.]+", prefix):
            raise ValueError(f"prefix must be alphanumeric, got {prefix!r}")
        self.directory = os.fspath(directory)
        self.keep = keep
        self.prefix = prefix
        self.faults = faults
        #: ``(path, reason)`` for archives skipped by the last recovery walk.
        self.skipped: list[tuple[str, str]] = []
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def path_for(self, step: int) -> str:
        """Archive path for checkpoint ``step``."""
        return os.path.join(self.directory, f"{self.prefix}-{step:08d}.npz")

    def steps(self) -> list[int]:
        """Steps with an archive on disk, ascending (valid or not)."""
        pattern = re.compile(rf"{re.escape(self.prefix)}-(\d+)\.npz$")
        found = []
        for name in os.listdir(self.directory):
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
        write_archive(path, arrays, faults=self.faults)
        self._rotate()
        return path

    def load(self, step: int) -> dict[str, np.ndarray]:
        """Load and verify one specific checkpoint."""
        return read_archive(self.path_for(step), faults=self.faults)

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
                return step, read_archive(path, faults=self.faults)
            except (CheckpointError, OSError) as error:
                self.skipped.append((path, str(error)))
        return None

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _rotate(self) -> None:
        for step in self.steps()[: -self.keep]:
            path = self.path_for(step)
            for stale in (path, path + CHECKSUM_SUFFIX):
                try:
                    os.unlink(stale)
                except FileNotFoundError:
                    pass


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
    state = {
        name[len("model/") :]: values
        for name, values in payload.items()
        if name.startswith("model/")
    }
    if not state:
        # A bare state_dict archive (no section prefixes).
        state = {
            name: values
            for name, values in payload.items()
            if "/" not in name
        }
    if not state:
        raise CheckpointError(
            f"{checkpoint}: archive holds no model parameters"
        )
    return state, step
