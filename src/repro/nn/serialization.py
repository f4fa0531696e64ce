"""The one artifact layer: every ``.npz`` the repository writes or reads.

Training checkpoints, served weights, online model versions and
retrieval indexes are all flat ``name -> array`` archives, written by
:func:`write_archive` and read back by :func:`read_archive`:

* **Atomic writes** — a temporary file in the destination directory,
  flushed and fsync'd, then moved over the final name with
  :func:`os.replace` (atomic on POSIX).  A reader sees the old file or
  the new one, never half of either.
* **Checksums** — every archive gets a ``<name>.npz.sha256`` sidecar,
  written after the archive.  The reader recomputes it, so bit rot, a
  partial copy or a crash between the two writes is refused instead of
  surfacing as a NumPy error deep inside training or serving.
* **One format stamp** — ``meta/format_version``; the reader refuses a
  version it does not know and strips the stamp, so what is read back
  is exactly what was written.
* **No pickles** — archives hold arrays only (JSON travels as a string
  array) and load with ``allow_pickle=False``.

Archives written before the sidecar and the stamp existed (a plain
``save_checkpoint`` file, a bare state dict, a version-1 index) still
load: a *missing* sidecar or stamp is accepted, a mismatching one is
not.  Every failure is a :class:`CheckpointError` naming the path.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import BinaryIO, Callable, Mapping

import numpy as np

FORMAT_VERSION = 1
FORMAT_KEY = "meta/format_version"
CHECKSUM_SUFFIX = ".sha256"


class CheckpointError(ValueError):
    """An artifact could not be written, read, or restored.

    Raised with the offending path in the message for corruption
    (truncated or bit-flipped archives, checksum mismatches, an unknown
    format version) and for restore-time shape/key mismatches against a
    differently-configured model — instead of a bare NumPy or zipfile
    error.  Subclasses :class:`ValueError` so ``except ValueError``
    callers (the CLI's one-line set-up errors) keep working.
    """


def atomic_write(path: str | os.PathLike, write: Callable[[BinaryIO], None]) -> None:
    """Write a file atomically: temp file + fsync + ``os.replace``.

    ``write`` receives the open binary handle.  On any failure the temp
    file is removed and the previous content of ``path`` (if any) is
    left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    atomic_write(path, lambda handle: handle.write(data))


def _sha256(path: str) -> str:
    """Hex SHA-256 of a file's content, streamed."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_archive(path: str | os.PathLike, arrays: Mapping[str, np.ndarray]) -> str:
    """Write ``arrays`` (stamped) and its checksum sidecar; returns the digest.

    The archive lands first and the sidecar second, each atomically.  A
    crash between the two leaves a new archive with a stale sidecar,
    which :func:`read_archive` refuses — recovery then falls back to an
    older archive, never to garbage.
    """
    path = os.fspath(path)
    payload = {name: np.asarray(values) for name, values in arrays.items()}
    payload[FORMAT_KEY] = np.asarray(FORMAT_VERSION)
    atomic_write(path, lambda handle: np.savez(handle, **payload))
    digest = _sha256(path)
    atomic_write_bytes(path + CHECKSUM_SUFFIX, (digest + "\n").encode("ascii"))
    return digest


def read_archive(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """The arrays :func:`write_archive` wrote to ``path``, verified.

    Raises :class:`CheckpointError` naming ``path`` when the file is
    missing, disagrees with its sidecar, fails to parse (truncated zip,
    bad header, ...) or carries a format version this build does not
    read.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise CheckpointError(f"{path}: archive does not exist")
    sidecar = path + CHECKSUM_SUFFIX
    if os.path.exists(sidecar):
        with open(sidecar) as handle:
            expected = handle.read().strip()
        actual = _sha256(path)
        if actual != expected:
            raise CheckpointError(
                f"{path}: checksum mismatch (expected {expected[:12]}…, "
                f"got {actual[:12]}…) — archive is corrupt"
            )
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except Exception as error:
        raise CheckpointError(f"{path}: unreadable archive: {error}") from error
    stamp = arrays.pop(FORMAT_KEY, None)
    if stamp is not None and stamp.tolist() != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported artifact format version {stamp.tolist()!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return arrays


def remove_archive(path: str | os.PathLike) -> None:
    """Delete an archive and its sidecar; either may already be gone."""
    path = os.fspath(path)
    for victim in (path, path + CHECKSUM_SUFFIX):
        try:
            os.unlink(victim)
        except FileNotFoundError:
            pass


def section(arrays: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The ``<prefix>/<name>`` entries of ``arrays``, keyed by ``name``."""
    start = len(prefix) + 1
    return {
        name[start:]: values
        for name, values in arrays.items()
        if name.startswith(prefix + "/")
    }


def load_into(target, state: Mapping[str, np.ndarray], source: str) -> None:
    """``target.load_state_dict(state)``; a misfit names ``source``.

    ``target`` is a model, optimizer or schedule.  Missing or unexpected
    names and shape mismatches — a checkpoint from a differently
    configured run — raise :class:`CheckpointError`.
    """
    try:
        target.load_state_dict(state)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"{source}: checkpoint does not fit this {type(target).__name__} "
            f"(was it written by a different configuration?): {error}"
        ) from error
