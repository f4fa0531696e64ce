"""IVF retrieval: k-means routing + compressed scoring + exact rerank.

The contrastive objective shapes the item-embedding space into usable
clusters; this index exploits that structure to make top-k retrieval
sub-linear in the catalogue size:

1. **Coarse quantizer (IVF)** — item vectors are partitioned into
   ``nlist`` k-means cells; each cell keeps an *inverted list* of its
   item ids.  A query scores the ``nlist`` centroids (cheap) and only
   visits the ``nprobe`` most promising cells, so the candidate pool
   is roughly ``nprobe / nlist`` of the catalogue.
2. **Compressed candidate scoring** — candidates are scored against a
   compressed matrix: ``int8`` scalar codes (``quantize="int8"``,
   kind ``ivf``) or product-quantization codes with an ADC lookup
   table (``quantize="pq"``, kind ``ivf_pq``).  ``quantize="none"``
   (kind ``ivf_flat``) scores candidates exactly — with
   ``nprobe = nlist`` that configuration returns exactly the item
   lists of :class:`~repro.retrieval.exact.ExactIndex` (scores agree
   to floating-point rounding), the anchor of the recall property
   tests.
3. **Exact rerank** — the top ``rerank`` candidates by compressed
   score are rescored against the full-precision matrix, so
   quantization error only matters when it pushes a true top-k item
   out of the shortlist entirely.  ``rerank`` and ``nprobe`` are the
   two exactness knobs; the recall@k-vs-latency tradeoff is measured
   in ``benchmarks/test_retrieval_latency.py``.

Ties break by ascending item id at every stage, so results are
deterministic and save/load round-trips are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.eval.topk import top_k_indices
from repro.retrieval.base import (
    IndexBuildError,
    ItemIndex,
    SearchResult,
    SearchStats,
    register_index,
)
from repro.retrieval.kmeans import kmeans
from repro.retrieval.quantize import Int8Quantizer, ProductQuantizer

__all__ = ["IVFIndex"]

_NEG_INF = -np.inf

#: ``quantize=`` spellings accepted by :class:`IVFIndex`.
_QUANTIZE_MODES = ("none", "int8", "pq")

#: Registry kind implied by each quantize mode (and vice versa).
_KIND_BY_QUANTIZE = {"none": "ivf_flat", "int8": "ivf", "pq": "ivf_pq"}
_QUANTIZE_BY_KIND = {kind: mode for mode, kind in _KIND_BY_QUANTIZE.items()}


def default_nlist(num_items: int) -> int:
    """The ``sqrt(N)`` heuristic, clamped to a sane range."""
    return max(1, min(4096, int(round(np.sqrt(max(1, num_items))))))


@register_index
class IVFIndex(ItemIndex):
    """Inverted-file index with optional int8 / PQ candidate scoring.

    Parameters
    ----------
    nlist:
        Number of k-means cells (``None``: ``sqrt(N)`` at build time).
    nprobe:
        Cells visited per query; clamped to ``nlist``.  More probes =
        higher recall, more candidates scored.
    quantize:
        Candidate-scoring representation: ``"none"`` (exact),
        ``"int8"`` or ``"pq"``.
    rerank:
        Top-R compressed-score candidates rescored exactly per query
        (``None``: ``max(10 * k, 100)`` at search time; ignored when
        ``quantize="none"`` — those scores are already exact).
    pq_m:
        PQ subspace count (must divide the embedding dim).
    kmeans_iters, seed:
        Clustering budget and determinism anchor.
    """

    kinds = tuple(_QUANTIZE_BY_KIND)

    def __init__(
        self,
        nlist: int | None = None,
        nprobe: int = 8,
        quantize: str = "int8",
        rerank: int | None = None,
        pq_m: int = 8,
        kmeans_iters: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if quantize not in _QUANTIZE_MODES:
            raise ValueError(
                f"quantize must be one of {_QUANTIZE_MODES}, got {quantize!r}"
            )
        if nlist is not None and nlist < 1:
            raise ValueError(f"nlist must be positive, got {nlist}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        if rerank is not None and rerank < 1:
            raise ValueError(f"rerank must be positive, got {rerank}")
        self.nlist = nlist
        self.nprobe = int(nprobe)
        self.quantize = quantize
        self.rerank = rerank
        self.pq_m = int(pq_m)
        self.kmeans_iters = int(kmeans_iters)
        self.seed = int(seed)
        self._centroids: np.ndarray | None = None
        self._list_ids: np.ndarray | None = None  # concatenated, per-cell sorted
        self._list_offsets: np.ndarray | None = None  # (nlist + 1,)
        self._codes: np.ndarray | None = None
        self._quantizer: Int8Quantizer | ProductQuantizer | None = None
        self._pq_relative_error: float | None = None

    @classmethod
    def from_kind(cls, kind: str, **params) -> "IVFIndex":
        params.setdefault("quantize", _QUANTIZE_BY_KIND[kind])
        return cls(**params)

    @property
    def kind(self) -> str:
        """The registry name matching this configuration."""
        return _KIND_BY_QUANTIZE[self.quantize]

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, item_matrix: np.ndarray) -> "IVFIndex":
        return self._fit(item_matrix, codebooks=None)

    def _fit(
        self, item_matrix: np.ndarray, codebooks: np.ndarray | None
    ) -> "IVFIndex":
        """``build``; PQ continues from ``codebooks`` when they fit."""
        matrix = self._set_matrix(item_matrix)
        # Row 0 is the padding id: never a candidate, so it is kept out
        # of the inverted lists entirely.
        items = matrix[1:].astype(np.float64, copy=False)
        num_items = items.shape[0]
        nlist = self.nlist if self.nlist is not None else default_nlist(num_items)
        nlist = max(1, min(int(nlist), num_items))
        result = kmeans(
            items, nlist, iters=self.kmeans_iters, seed=self.seed
        )
        # self.nlist stays the *configured* knob (None = auto), so a
        # rebuild() on new data re-derives it the same way; the built
        # cell count is :attr:`nlist_built`.
        self._centroids = result.centroids
        order = np.argsort(result.assignments, kind="stable")
        counts = np.bincount(
            result.assignments, minlength=result.centroids.shape[0]
        )
        self._list_offsets = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        # ``order`` is a stable sort of ascending positions, so ids
        # within each cell come out ascending — the tie-break anchor.
        self._list_ids = (order + 1).astype(np.int64)

        if self.quantize == "int8":
            self._quantizer = Int8Quantizer().fit(items)
            self._codes = self._quantizer.encode(matrix)
        elif self.quantize == "pq":
            if matrix.shape[1] % self.pq_m != 0:
                raise IndexBuildError(
                    f"pq_m={self.pq_m} does not divide embedding dim "
                    f"{matrix.shape[1]}"
                )
            width = matrix.shape[1] // self.pq_m
            if codebooks is not None and codebooks.shape != (
                self.pq_m, ProductQuantizer.CODEBOOK_SIZE, width
            ):
                codebooks = None  # pq_m or the dim changed: cold fit
            self._quantizer = ProductQuantizer(
                m=self.pq_m, iters=self.kmeans_iters, seed=self.seed
            )
            # The fit's own assignment codes the item rows; only the
            # padding row is left to encode.
            item_codes = self._quantizer.fit_encode(items, init=codebooks)
            self._codes = np.concatenate(
                [self._quantizer.encode(matrix[:1]), item_codes]
            )
            self._measure_pq_error()
        else:
            self._quantizer = None
            self._codes = None
        return self

    @property
    def nlist_built(self) -> int:
        """Cells in the built index (resolved from the auto heuristic)."""
        self._require_built()
        return int(self._centroids.shape[0])

    def rebuild(self, item_matrix: np.ndarray) -> "IVFIndex":
        clone = IVFIndex(
            nlist=self.nlist,  # configured knob; None re-derives sqrt(N)
            nprobe=self.nprobe,
            quantize=self.quantize,
            rerank=self.rerank,
            pq_m=self.pq_m,
            kmeans_iters=self.kmeans_iters,
            seed=self.seed,
        )
        # The cells are re-fit cold: they decide what a query probes and
        # a warm start parks them in a local minimum.  Only the PQ
        # codebooks continue, by one Lloyd step from the live ones.
        return clone._fit(
            item_matrix, codebooks=getattr(self._quantizer, "codebooks", None)
        )

    def _measure_pq_error(self) -> None:
        """Store Σ‖x − decode(code)‖² ÷ Σ‖x‖² over the item rows."""
        items = self._matrix[1:].astype(np.float64, copy=False)
        residual = items - self._quantizer.decode(self._codes[1:])
        norm = float(np.einsum("nd,nd->", items, items))
        self._pq_relative_error = (
            float(np.einsum("nd,nd->", residual, residual)) / norm if norm else 0.0
        )

    def with_params(
        self, nprobe: int | None = None, rerank: int | None = None
    ) -> "IVFIndex":
        """Adjust the exactness knobs in place (no rebuild needed)."""
        if nprobe is not None:
            if nprobe < 1:
                raise ValueError(f"nprobe must be positive, got {nprobe}")
            self.nprobe = int(nprobe)
        if rerank is not None:
            if rerank < 1:
                raise ValueError(f"rerank must be positive, got {rerank}")
            self.rerank = int(rerank)
        return self

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _cell_ids(self, cell: int) -> np.ndarray:
        start, stop = self._list_offsets[cell], self._list_offsets[cell + 1]
        return self._list_ids[start:stop]

    def _approx_scores(self, query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        if self.quantize == "none":
            return np.asarray(
                self._matrix[candidates] @ query, dtype=np.float64
            )
        return self._quantizer.scores(query, self._codes[candidates])

    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude: list[np.ndarray | None] | None = None,
    ) -> SearchResult:
        queries = self._validate_queries(queries, k)
        batch = queries.shape[0]
        k = min(k, self.num_rows - 1)
        nprobe = min(self.nprobe, self.nlist_built)
        # Route: rank cells by centroid inner product (the same metric
        # the final scores use), deterministically.
        cell_scores = np.asarray(queries, dtype=np.float64) @ self._centroids.T
        probes = top_k_indices(cell_scores, nprobe)
        if probes.ndim == 1:  # single-cell index
            probes = probes[:, None]

        items = np.zeros((batch, k), dtype=np.int64)
        scores = np.full((batch, k), _NEG_INF, dtype=np.float64)
        stats = SearchStats()
        for b in range(batch):
            candidates = np.concatenate(
                [self._cell_ids(int(cell)) for cell in probes[b]]
                or [np.empty(0, dtype=np.int64)]
            )
            # Cells are disjoint; one sort makes the pool ascending so
            # score ties resolve by item id, matching ExactIndex.
            candidates.sort()
            excluded = exclude[b] if exclude is not None else None
            if excluded is not None and len(excluded) and candidates.size:
                candidates = candidates[
                    ~np.isin(candidates, np.asarray(excluded, dtype=np.int64))
                ]
            stats.clusters_probed += int(nprobe)
            if candidates.size == 0:
                continue
            query = queries[b]
            approx = self._approx_scores(query, candidates)
            stats.candidates_scored += int(candidates.size)
            if self.quantize != "none":
                budget = (
                    self.rerank
                    if self.rerank is not None
                    else max(10 * k, 100)
                )
                shortlist_k = min(int(budget), candidates.size)
                shortlist = candidates[top_k_indices(approx, shortlist_k)]
                shortlist.sort()  # restore ascending ids for tie-breaks
                exact = np.asarray(
                    self._matrix[shortlist] @ query, dtype=np.float64
                )
                stats.reranked += int(shortlist.size)
                candidates, approx = shortlist, exact
            take = min(k, candidates.size)
            top = top_k_indices(approx, take)
            items[b, :take] = candidates[top]
            scores[b, :take] = approx[top]
        return SearchResult(items=items, scores=scores, stats=stats)

    def score(self, queries: np.ndarray) -> np.ndarray:
        """Full score rows from the *compressed* representation.

        ``quantize="none"`` is exact; int8/PQ rows carry the
        quantization error, which is precisely what the evaluator
        wants to measure when it runs the ranking protocol over an
        index (``Evaluator(..., index=...)``).
        """
        queries = self._validate_queries(queries, k=1)
        if self.quantize == "none":
            return np.array(
                queries @ self._matrix.T, dtype=np.float64, copy=True
            )
        if self.quantize == "int8":
            folded = np.asarray(queries, dtype=np.float64) * self._quantizer.scale
            return folded @ self._codes.astype(np.float64).T
        tables = np.einsum(
            "mkd,bmd->bmk",
            self._quantizer.codebooks,
            np.asarray(queries, dtype=np.float64).reshape(
                queries.shape[0], self._quantizer.m, -1
            ),
        )
        codes = self._codes.astype(np.int64)
        total = tables[:, 0, :][:, codes[:, 0]].copy()
        for sub in range(1, self._quantizer.m):
            total += tables[:, sub, :][:, codes[:, sub]]
        return total

    # ------------------------------------------------------------------
    # Introspection / artifacts
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        payload = super().stats()
        payload.update(
            quantize=self.quantize,
            nprobe=self.nprobe,
            rerank=self.rerank,
        )
        if self.is_built:
            counts = np.diff(self._list_offsets)
            payload.update(
                nlist=self.nlist_built,
                list_size_min=int(counts.min()),
                list_size_max=int(counts.max()),
                list_size_mean=float(counts.mean()),
                code_bytes=int(self._codes.nbytes) if self._codes is not None else 0,
                centroid_bytes=int(self._centroids.nbytes),
            )
            if self.quantize == "pq":
                payload["pq_relative_error"] = self._pq_relative_error
        return payload

    def _artifact_params(self) -> dict:
        return {
            "nlist": int(self.nlist) if self.nlist is not None else None,
            "nprobe": self.nprobe,
            "quantize": self.quantize,
            "rerank": self.rerank,
            "pq_m": self.pq_m,
            "kmeans_iters": self.kmeans_iters,
            "seed": self.seed,
        }

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        arrays = {
            "centroids": self._centroids,
            "list_ids": self._list_ids,
            "list_offsets": self._list_offsets,
        }
        if self._codes is not None:
            arrays["codes"] = self._codes
        if self._quantizer is not None:
            arrays.update(self._quantizer.state())
        return arrays

    def _restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._centroids = np.asarray(arrays["centroids"], dtype=np.float64)
        self._list_ids = np.asarray(arrays["list_ids"], dtype=np.int64)
        self._list_offsets = np.asarray(arrays["list_offsets"], dtype=np.int64)
        if self.quantize == "int8":
            self._quantizer = Int8Quantizer.from_state(arrays)
            self._codes = np.asarray(arrays["codes"], dtype=np.int8)
        elif self.quantize == "pq":
            self._quantizer = ProductQuantizer.from_state(arrays)
            self._codes = np.asarray(arrays["codes"], dtype=np.uint8)
            self._measure_pq_error()
