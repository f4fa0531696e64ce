"""Index artifacts: one self-describing ``.npz`` per built index.

Layout::

    __meta__      json: {"format_version", "kind", "params", "checksum"}
    matrix        the full-precision item matrix (exact rerank + verify)
    <kind arrays> centroids / inverted lists / codes / quantizer state

``repro index`` writes these offline; ``repro serve --index-path``
loads one and the engine verifies its ``checksum`` against the matrix
the live model produces, so a stale artifact can never silently serve
a different embedding space (see
:class:`~repro.retrieval.base.IndexMismatchError`).  Loads are
``allow_pickle=False`` — artifacts hold arrays and JSON only.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from repro.nn.serialization import atomic_write
from repro.retrieval.base import (
    INDEX_KINDS,
    IndexBuildError,
    ItemIndex,
    matrix_checksum,
)

__all__ = ["FORMAT_VERSION", "load_index", "save_index"]

FORMAT_VERSION = 1


def save_index(index: ItemIndex, path: str | os.PathLike) -> str:
    """Persist ``index`` (built) to ``path``; returns the path written."""
    index._require_built()
    path = os.fspath(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": index.kind,
        "params": index._artifact_params(),
        "checksum": index.checksum,
        "num_rows": index.num_rows,
        "dim": index.dim,
        "dtype": str(index.matrix.dtype),
    }
    arrays = dict(index._artifact_arrays())
    reserved = {"__meta__", "matrix"} & set(arrays)
    if reserved:
        raise IndexBuildError(f"artifact arrays shadow reserved names: {reserved}")
    # Temp file + fsync + rename: a crash mid-write never leaves a torn
    # artifact where a loader might find it.
    atomic_write(
        path,
        lambda handle: np.savez(
            handle,
            __meta__=np.array(json.dumps(meta, sort_keys=True)),
            matrix=index.matrix,
            **arrays,
        ),
    )
    return path


def load_index(path: str | os.PathLike) -> ItemIndex:
    """Load an artifact written by :func:`save_index`.

    The stored checksum is re-verified against the loaded matrix, so a
    corrupted artifact fails loudly instead of serving garbage.
    """
    path = os.fspath(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as error:
        raise IndexBuildError(f"{path}: not a readable index artifact: {error}") from error
    if "__meta__" not in payload or "matrix" not in payload:
        raise IndexBuildError(f"{path}: missing index metadata or matrix")
    try:
        meta = json.loads(str(payload.pop("__meta__")))
    except json.JSONDecodeError as error:
        raise IndexBuildError(f"{path}: corrupt index metadata: {error}") from error
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexBuildError(
            f"{path}: unsupported index format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    kind = meta.get("kind")
    if kind not in INDEX_KINDS:
        raise IndexBuildError(
            f"{path}: unknown index kind {kind!r}; "
            f"registered: {sorted(INDEX_KINDS)}"
        )
    matrix = payload.pop("matrix")
    if matrix_checksum(matrix) != meta.get("checksum"):
        raise IndexBuildError(
            f"{path}: item-matrix checksum mismatch — the artifact is "
            f"corrupt or was tampered with; rebuild it with 'repro index'"
        )
    params = {
        key: value for key, value in meta.get("params", {}).items()
        if value is not None
    }
    index = INDEX_KINDS[kind].from_kind(kind, **params)
    index._set_matrix(matrix)
    index._restore_arrays(payload)
    return index
