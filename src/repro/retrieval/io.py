"""Index artifacts: one self-describing ``.npz`` per built index.

Layout::

    __meta__      json object: {"kind", "params", "checksum",
                  "num_rows", "dim", "dtype"}
    matrix        the full-precision item matrix (exact rerank + verify)
    <kind arrays> centroids / inverted lists / codes / quantizer state

written and read by the one artifact layer
(:mod:`repro.nn.serialization`), which adds the ``meta/format_version``
stamp and the ``.sha256`` sidecar and turns a missing, torn, corrupt
or unknown-version file into a :class:`CheckpointError`.

``repro index`` writes these offline; ``repro serve --index-path``
loads one and the engine verifies its ``checksum`` against the matrix
the live model produces, so a stale artifact can never silently serve
a different embedding space (see
:class:`~repro.retrieval.base.IndexMismatchError`).  What only an index
knows — an unknown kind, a matrix that disagrees with its checksum — is
an :class:`~repro.retrieval.base.IndexBuildError`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.nn.serialization import CheckpointError, read_archive, write_archive
from repro.retrieval.base import (
    INDEX_KINDS,
    IndexBuildError,
    ItemIndex,
    matrix_checksum,
)

__all__ = ["load_index", "save_index"]


def save_index(index: ItemIndex, path: str | os.PathLike) -> str:
    """Persist ``index`` (built) to ``path``; returns the path written."""
    index._require_built()
    path = os.fspath(path)
    meta = {
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
    arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    arrays["matrix"] = index.matrix
    write_archive(path, arrays)
    return path


def load_index(path: str | os.PathLike) -> ItemIndex:
    """Load an artifact written by :func:`save_index`.

    The stored checksum is re-verified against the loaded matrix, so a
    corrupted artifact fails loudly instead of serving garbage.
    """
    path = os.fspath(path)
    payload = read_archive(path)
    if "__meta__" not in payload or "matrix" not in payload:
        raise CheckpointError(f"{path}: missing index metadata or matrix")
    try:
        meta = json.loads(str(payload.pop("__meta__")))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{path}: corrupt index metadata: {error}") from error
    if not isinstance(meta, dict) or not isinstance(meta.get("params", {}), dict):
        raise CheckpointError(
            f"{path}: corrupt index metadata: expected a JSON object with "
            f"object 'params', got {type(meta).__name__}"
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
