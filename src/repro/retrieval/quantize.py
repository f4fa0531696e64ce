"""Compressed item-matrix representations: int8 scalar + product codes.

The IVF index scores shortlisted candidates against a *compressed*
matrix before exact reranking; this module holds the two compression
schemes, each with a strict encode/decode round-trip contract that the
property tests pin down:

* :class:`Int8Quantizer` — symmetric per-dimension scalar quantization
  to int8 (4x / 8x smaller than float32 / float64).  Round-trip error
  is bounded by half a quantization step per dimension:
  ``|decode(encode(x)) - x| <= scale / 2`` elementwise.
* :class:`ProductQuantizer` — classic PQ (Jégou et al., TPAMI 2011):
  the vector is split into ``m`` subspaces, each encoded as the id of
  its nearest codeword from a 256-entry k-means codebook (1 byte per
  subspace).  The invariant is *optimality of the assignment*: the
  reconstruction of every subvector is at least as close as any other
  codeword in that codebook.

Both expose the same small surface: ``fit(matrix)``, ``encode``,
``decode``, ``scores(query, codes)`` (inner-product scoring against
compressed rows, via a lookup table for PQ), and ``state()`` /
``from_state`` for the artifact round-trip.
"""

from __future__ import annotations

import numpy as np

from repro.retrieval.kmeans import assign_chunked, kmeans

__all__ = ["Int8Quantizer", "ProductQuantizer"]


class Int8Quantizer:
    """Symmetric per-dimension int8 scalar quantization.

    ``scale[d] = max(|x[:, d]|) / 127`` (1 where the column is all
    zero), ``code = round(x / scale)`` clipped to ``[-127, 127]``.
    """

    def __init__(self, scale: np.ndarray | None = None) -> None:
        self.scale = scale

    def fit(self, matrix: np.ndarray) -> "Int8Quantizer":
        matrix = np.asarray(matrix, dtype=np.float64)
        peak = np.abs(matrix).max(axis=0)
        scale = peak / 127.0
        scale[scale == 0.0] = 1.0
        self.scale = scale
        return self

    def encode(self, matrix: np.ndarray) -> np.ndarray:
        """``(n, d)`` float → ``(n, d)`` int8 codes."""
        codes = np.rint(np.asarray(matrix, dtype=np.float64) / self.scale)
        return np.clip(codes, -127, 127).astype(np.int8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """``(n, d)`` int8 codes → float64 reconstruction."""
        return codes.astype(np.float64) * self.scale

    def scores(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate inner products of ``query`` with coded rows.

        ``sum_d q_d * scale_d * code_d`` — the per-dimension scale
        folds into the query once, so scoring ``C`` candidates costs
        one ``(C, d) @ (d,)`` product over the int8 codes.
        """
        return codes @ (np.asarray(query, dtype=np.float64) * self.scale)

    def state(self) -> dict[str, np.ndarray]:
        return {"int8_scale": np.asarray(self.scale, dtype=np.float64)}

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "Int8Quantizer":
        return cls(scale=np.asarray(state["int8_scale"], dtype=np.float64))


class ProductQuantizer:
    """Product quantization with ``m`` subspaces x 256-entry codebooks.

    ``d`` must be divisible by ``m``; each subvector of width ``d / m``
    is replaced by one byte (the id of its nearest codeword), so a row
    costs ``m`` bytes instead of ``8 d`` — a 64x compression at
    ``d = 64, m = 8`` over float64.
    """

    #: Codewords per subspace codebook (one uint8 code).
    CODEBOOK_SIZE = 256
    #: Rows each subspace's k-means trains on (a seeded subsample above).
    train_sample = 65536

    def __init__(
        self,
        m: int = 8,
        iters: int = 10,
        seed: int = 0,
        codebooks: np.ndarray | None = None,
    ) -> None:
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        self.m = int(m)
        self.iters = int(iters)
        self.seed = int(seed)
        #: ``(m, 256, d // m)`` float64 codebooks once fitted.
        self.codebooks = codebooks

    def _split(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        n, d = matrix.shape
        if d % self.m != 0:
            raise ValueError(
                f"embedding dim {d} is not divisible by m={self.m} subspaces"
            )
        return matrix.reshape(n, self.m, d // self.m)

    def fit(
        self, matrix: np.ndarray, init: np.ndarray | None = None
    ) -> "ProductQuantizer":
        """Train the ``m`` codebooks on ``matrix``.

        With ``init`` — ``(m, 256, d // m)`` codebooks of an earlier fit
        — each sub-space takes one Lloyd step from them instead of
        ``iters`` steps from k-means++: on the same matrix that is the
        ``iters + 1`` fit of the quantizer ``init`` came from.
        """
        subvectors = self._split(matrix)
        n, __, ds = subvectors.shape
        shape = (self.m, self.CODEBOOK_SIZE, ds)
        if init is not None and np.shape(init) != shape:
            raise ValueError(
                f"init codebooks must be {shape}, got shape {np.shape(init)}"
            )
        codebooks = np.zeros(shape, dtype=np.float64)
        for sub in range(self.m):
            result = kmeans(
                subvectors[:, sub, :],
                self.CODEBOOK_SIZE,
                iters=self.iters if init is None else 1,
                seed=self.seed + sub,  # decorrelate subspace inits
                sample=self.train_sample,
                # kmeans clamps k to n; the rows past n are padding.
                init=None if init is None else init[sub, :n],
            )
            # Fewer distinct points than codewords: kmeans clamps k;
            # pad by repeating the first centroid so codes stay uint8
            # addressable without a ragged structure.
            fitted = result.centroids
            codebooks[sub, : fitted.shape[0]] = fitted
            if fitted.shape[0] < self.CODEBOOK_SIZE:
                codebooks[sub, fitted.shape[0] :] = fitted[0]
        self.codebooks = codebooks
        return self

    def encode(self, matrix: np.ndarray) -> np.ndarray:
        """``(n, d)`` float → ``(n, m)`` uint8 codes (nearest codeword)."""
        subvectors = self._split(matrix)
        n = subvectors.shape[0]
        codes = np.empty((n, self.m), dtype=np.uint8)
        for sub in range(self.m):
            assignments, __ = assign_chunked(
                subvectors[:, sub, :], self.codebooks[sub]
            )
            codes[:, sub] = assignments.astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """``(n, m)`` uint8 codes → ``(n, d)`` float64 reconstruction."""
        codes = np.asarray(codes)
        parts = [
            self.codebooks[sub][codes[:, sub].astype(np.int64)]
            for sub in range(self.m)
        ]
        return np.concatenate(parts, axis=1)

    def lookup_table(self, query: np.ndarray) -> np.ndarray:
        """``(m, 256)`` inner products of query subvectors x codewords.

        Asymmetric distance computation (ADC): with the table built
        once per query, scoring a coded row is ``m`` table lookups and
        adds — independent of ``d``.
        """
        query = np.asarray(query, dtype=np.float64).reshape(self.m, -1)
        return np.einsum("mkd,md->mk", self.codebooks, query)

    def scores(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate inner products via :meth:`lookup_table` gathers.

        The per-subspace tables are flattened so the whole batch is one
        fancy-index into a ``(m * 256,)`` vector plus a row sum — no
        per-subspace Python loop on the serving hot path.
        """
        table = self.lookup_table(query)
        codes = np.asarray(codes)
        offsets = np.arange(self.m, dtype=np.int64) * self.CODEBOOK_SIZE
        flat = codes.astype(np.int64, copy=False) + offsets
        return table.ravel()[flat].sum(axis=1)

    def state(self) -> dict[str, np.ndarray]:
        return {
            "pq_codebooks": np.asarray(self.codebooks, dtype=np.float64),
            "pq_meta": np.asarray(
                [self.m, self.iters, self.seed, self.train_sample],
                dtype=np.int64,
            ),
        }

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "ProductQuantizer":
        m, iters, seed, __ = (
            int(v) for v in np.asarray(state["pq_meta"], dtype=np.int64)
        )
        return cls(
            m=m,
            iters=iters,
            seed=seed,
            codebooks=np.asarray(state["pq_codebooks"], dtype=np.float64),
        )
