"""The ``ItemIndex`` protocol: one retrieval surface for eval + serving.

CL4SRec's serving path (PR 2) scored the *entire* catalogue with a
dense matmul per request.  This package makes top-k retrieval a
first-class, swappable component behind a small protocol::

    build(item_matrix)           # fit the index to an (N, d) matrix
    search(queries, k, exclude)  # approximate/exact top-k + stats
    score(queries)               # full (B, N) score rows (eval surface)
    save(path) / load(path)      # self-describing on-disk artifact
    stats()                      # structural + memory info
    rebuild(item_matrix)         # same hyperparameters, fresh data

Implementations register themselves by ``kind`` so engines, the CLI
(``repro serve --index ...``, ``repro index``) and artifact loading can
construct them by name:

* ``exact``  — :class:`repro.retrieval.exact.ExactIndex`; the dense
  matmul + partial-sort path the engine always had, bit-identical.
* ``ivf`` / ``ivf_pq`` — :class:`repro.retrieval.ivf.IVFIndex`;
  k-means coarse quantizer with ``nprobe``-controlled probing, int8 /
  product-quantized candidate scoring, exact top-R reranking.

Row 0 of the item matrix is the padding id and is never returned by
``search``; ``score`` leaves it in place (the evaluator masks it, as
it always has).
"""

from __future__ import annotations

import abc
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "INDEX_KINDS",
    "IndexBuildError",
    "IndexMismatchError",
    "ItemIndex",
    "SearchResult",
    "SearchStats",
    "make_index",
    "matrix_checksum",
    "register_index",
]


class IndexBuildError(RuntimeError):
    """An index could not be built or loaded (bad shape, bad artifact)."""


class IndexMismatchError(RuntimeError):
    """A loaded index artifact does not match the serving model.

    Raised when an artifact's item matrix (dtype, shape or checksum)
    disagrees with the matrix the live model produces — serving stale
    or mismatched index artifacts silently would corrupt results.  An
    artifact written while models served in float64 holds a float64
    matrix and mismatches every float32 model.  Rebuild the artifact
    with ``repro index`` from the serving checkpoint.
    """


def matrix_checksum(matrix: np.ndarray) -> str:
    """Stable fingerprint of an item matrix (dtype/shape/bytes)."""
    digest = hashlib.sha256()
    digest.update(str(matrix.dtype).encode())
    digest.update(str(matrix.shape).encode())
    digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.hexdigest()


@dataclass
class SearchStats:
    """Work accounting for one :meth:`ItemIndex.search` call.

    The serving engine forwards these into ``ServingMetrics`` as the
    ``index_clusters_probed`` / ``index_candidates_scored`` /
    ``index_reranked`` counters.
    """

    clusters_probed: int = 0
    candidates_scored: int = 0
    reranked: int = 0


@dataclass
class SearchResult:
    """Top-k retrieval output for a batch of query vectors.

    ``items[b]`` are item ids best-first; slots that could not be
    filled (every candidate excluded, tiny catalogues) carry score
    ``-inf`` — callers keep the finite prefix, exactly like the
    historical engine path did.
    """

    items: np.ndarray  # (B, k) int64
    scores: np.ndarray  # (B, k) float64, -inf on unfilled slots
    stats: SearchStats = field(default_factory=SearchStats)


#: Registry of index implementations by ``kind`` string.
INDEX_KINDS: dict[str, type["ItemIndex"]] = {}


def register_index(cls: type["ItemIndex"]) -> type["ItemIndex"]:
    """Class decorator: make ``cls`` constructible via :func:`make_index`."""
    for kind in cls.kinds:
        if kind in INDEX_KINDS:
            raise ValueError(f"index kind {kind!r} is already registered")
        INDEX_KINDS[kind] = cls
    return cls


def make_index(kind: str, **params) -> "ItemIndex":
    """Construct an (unbuilt) index by registered kind name.

    ``params`` are forwarded to the implementation's constructor; the
    kind itself may imply defaults (e.g. ``"ivf_pq"`` selects product
    quantization).
    """
    try:
        cls = INDEX_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; registered: {sorted(INDEX_KINDS)}"
        ) from None
    return cls.from_kind(kind, **params)


class ItemIndex(abc.ABC):
    """Abstract base of every retrieval index (see module docstring).

    Subclasses set ``kinds`` (the registry names they answer to) and
    implement the abstract methods; shared validation and the artifact
    round-trip plumbing live here.
    """

    #: Registry names this implementation answers to.
    kinds: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._matrix: np.ndarray | None = None
        self._checksum: str | None = None

    # ------------------------------------------------------------------
    # Construction / registry
    # ------------------------------------------------------------------
    @classmethod
    def from_kind(cls, kind: str, **params) -> "ItemIndex":
        """Build an instance for registry name ``kind`` (hook point)."""
        return cls(**params)

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` (or :meth:`load`) has run."""
        return self._matrix is not None

    @property
    def matrix(self) -> np.ndarray:
        """The full-precision item matrix (kept for exact reranking)."""
        self._require_built()
        return self._matrix

    @property
    def checksum(self) -> str:
        """SHA-256 fingerprint of the built item matrix."""
        self._require_built()
        return self._checksum

    @property
    def num_rows(self) -> int:
        """Rows in the indexed matrix (``num_items + 1`` incl. padding)."""
        self._require_built()
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality of the indexed matrix."""
        self._require_built()
        return self._matrix.shape[1]

    def _require_built(self) -> None:
        if self._matrix is None:
            raise IndexBuildError(
                f"{type(self).__name__} is not built; call build(item_matrix) "
                f"or load(path) first"
            )

    def _set_matrix(self, item_matrix: np.ndarray) -> np.ndarray:
        """Validate + adopt the item matrix; returns the adopted array."""
        matrix = np.ascontiguousarray(item_matrix)
        if matrix.ndim != 2 or matrix.shape[0] < 2 or matrix.shape[1] < 1:
            raise IndexBuildError(
                f"item matrix must be (num_items + 1, d) with at least one "
                f"real item, got shape {matrix.shape}"
            )
        if not np.issubdtype(matrix.dtype, np.floating):
            raise IndexBuildError(
                f"item matrix must be floating point, got {matrix.dtype}"
            )
        if not np.all(np.isfinite(matrix)):
            raise IndexBuildError("item matrix contains non-finite values")
        self._matrix = matrix
        self._checksum = matrix_checksum(matrix)
        return matrix

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self, item_matrix: np.ndarray) -> "ItemIndex":
        """Fit the index to ``item_matrix`` ``(num_items + 1, d)``.

        Returns ``self`` so ``make_index(...).build(matrix)`` chains.
        """

    @abc.abstractmethod
    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude: list[np.ndarray | None] | None = None,
    ) -> SearchResult:
        """Top-``k`` item ids + float64 scores per query row.

        ``exclude`` optionally carries, per query, an array of item ids
        to remove from the candidate set (the engine passes seen-item
        sets).  The padding id 0 is always excluded.  Ties break
        deterministically by ascending item id.
        """

    @abc.abstractmethod
    def score(self, queries: np.ndarray) -> np.ndarray:
        """Full ``(B, num_rows)`` score rows — the evaluation surface.

        Exact for :class:`ExactIndex`; quantized indexes return their
        *approximate* scores so the evaluator can measure the metric
        cost of compression with the standard protocol.
        """

    @abc.abstractmethod
    def rebuild(self, item_matrix: np.ndarray) -> "ItemIndex":
        """A new index with the same hyperparameters on new data.

        The hot-reload path (``RecommendationEngine.swap_model``)
        builds the replacement off to the side and swaps the reference
        atomically, so requests never observe a half-built index; this
        index is left as it was, so a refused swap costs it nothing.

        The replacement may *continue* structures of this one where
        that is measured to serve the same lists, and must fall back to
        the cold :meth:`build` — decided from shapes it can see, never
        from an option — where they do not fit ``item_matrix``.
        ``ExactIndex``, ``ivf`` and ``ivf_flat`` continue nothing: their
        rebuild *is* ``build`` on the new matrix.  ``ivf_pq`` re-fits
        its cells cold and takes one Lloyd step on the live PQ
        codebooks (on an unchanged matrix: the codebooks of a cold
        build with ``kmeans_iters + 1``), so it is a function of
        (matrix, parameters, rebuilds since its cold build).
        """

    def stats(self) -> dict:
        """Structural info for ``/health``, logs and the CLI."""
        payload = {
            "kind": self.kind if self.kinds else type(self).__name__,
            "built": self.is_built,
        }
        if self.is_built:
            payload.update(
                num_rows=self.num_rows,
                dim=self.dim,
                dtype=str(self._matrix.dtype),
                matrix_bytes=int(self._matrix.nbytes),
                checksum=self._checksum,
            )
        return payload

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to persist beyond the shared matrix/meta payload."""

    @abc.abstractmethod
    def _artifact_params(self) -> dict:
        """JSON-safe hyperparameters to persist (and restore)."""

    def _restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt :meth:`_artifact_arrays` payload after a load (hook)."""

    @property
    def kind(self) -> str:
        """The registry name matching this instance's configuration."""
        return self.kinds[0]

    def save(self, path: str | os.PathLike) -> str:
        """Write a self-describing ``.npz`` artifact; returns the path.

        The artifact embeds the full-precision matrix, its checksum and
        the hyperparameters, so :func:`repro.retrieval.io.load_index`
        restores a bit-identical index and the serving engine can
        verify the artifact matches the live model.
        """
        from repro.retrieval.io import save_index

        return save_index(self, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ItemIndex":
        """Load an artifact written by :meth:`save` (kind-checked)."""
        from repro.retrieval.io import load_index

        index = load_index(path)
        if not isinstance(index, cls):
            raise IndexMismatchError(
                f"{os.fspath(path)} holds a {type(index).__name__}, "
                f"not a {cls.__name__}"
            )
        return index

    # ------------------------------------------------------------------
    # Shared search helpers
    # ------------------------------------------------------------------
    def _validate_queries(self, queries: np.ndarray, k: int) -> np.ndarray:
        queries = np.asarray(queries)
        self._require_built()
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries must be (B, {self.dim}), got shape {queries.shape}"
            )
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        return queries
