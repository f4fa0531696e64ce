"""The exact dense index: today's serving path behind the protocol.

``ExactIndex`` is deliberately boring — one matmul against the full
item matrix, float64 score rows, padding + exclusions masked to
``-inf``, then the shared :func:`repro.eval.topk.top_k_indices`
partial sort.  It reproduces the pre-retrieval engine **bit for bit**
(the operations and their order are identical), which is why it is the
default: ``repro serve --index exact`` serves the same lists the
engine always served, and every ANN index is measured against it.
"""

from __future__ import annotations

import numpy as np

from repro.eval.topk import top_k_indices
from repro.retrieval.base import (
    ItemIndex,
    SearchResult,
    SearchStats,
    register_index,
)

__all__ = ["ExactIndex"]

_NEG_INF = -np.inf


def apply_exclusions(
    scores: np.ndarray, exclude: list[np.ndarray | None] | None
) -> None:
    """Mask padding (column 0) and per-row excluded ids in place, one
    assignment per row that excludes anything."""
    scores[:, 0] = _NEG_INF
    if exclude is None:
        return
    for row, ids in enumerate(exclude):
        if ids is not None:
            scores[row, np.asarray(ids, dtype=np.int64)] = _NEG_INF


@register_index
class ExactIndex(ItemIndex):
    """Dense matmul + partial-sort top-k over the full catalogue."""

    kinds = ("exact",)

    def build(self, item_matrix: np.ndarray) -> "ExactIndex":
        self._set_matrix(item_matrix)
        return self

    def rebuild(self, item_matrix: np.ndarray) -> "ExactIndex":
        return ExactIndex().build(item_matrix)

    def score(self, queries: np.ndarray) -> np.ndarray:
        queries = self._validate_queries(queries, k=1)
        # Matmul in the native dtype, then the float64 cast — the same
        # order of operations the engine used, so results are
        # bit-identical in float32 serving mode too.
        return np.array(queries @ self._matrix.T, dtype=np.float64, copy=True)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude: list[np.ndarray | None] | None = None,
    ) -> SearchResult:
        queries = self._validate_queries(queries, k)
        scores = self.score(queries)
        apply_exclusions(scores, exclude)
        k = min(k, scores.shape[1])
        top = top_k_indices(scores, k)
        return SearchResult(
            items=top,
            scores=scores[np.arange(len(top))[:, np.newaxis], top],
            stats=SearchStats(candidates_scored=int(scores.size)),
        )

    def stats(self) -> dict:
        payload = super().stats()
        payload["exact"] = True
        return payload

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def _artifact_params(self) -> dict:
        return {}
