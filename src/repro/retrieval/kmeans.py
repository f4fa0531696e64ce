"""Deterministic, chunked Lloyd k-means for retrieval structures.

Both the IVF coarse quantizer and the product-quantizer codebooks are
plain k-means problems; this module is the single seeded implementation
they share.  Design constraints, in order:

* **Determinism** — same ``(points, k, seed)`` always yields the same
  centroids: seeded k-means++ init, fixed iteration count, ties in
  assignment resolved by ``argmin`` (lowest centroid id wins).
* **Bounded memory** — the ``(n, k)`` distance matrix is never fully
  materialized; assignment streams over row chunks so a 200k x 1024
  problem stays tens of MB instead of gigabytes.
* **No dead centroids** — an empty cluster is reseeded to the point
  currently farthest from its centroid, so every inverted list stays
  non-empty on reasonable data.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KMeansResult", "assign_chunked", "kmeans"]

#: Rows per chunk in the streaming assignment (bounds peak memory).
_CHUNK = 8192


def assign_chunked(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment by squared L2, streamed over chunks.

    Returns ``(assignments, distances)`` where ``distances[i]`` is the
    squared L2 distance of point ``i`` to its assigned centroid.
    """
    n = points.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
    # constant per row so the argmin only needs the last two.
    c_norms = np.einsum("kd,kd->k", centroids, centroids)
    for start in range(0, n, _CHUNK):
        chunk = points[start : start + _CHUNK]
        scores = chunk @ centroids.T
        scores *= -2.0
        scores += c_norms
        idx = np.argmin(scores, axis=1)
        assignments[start : start + _CHUNK] = idx
        x_norms = np.einsum("nd,nd->n", chunk, chunk)
        rows = np.arange(len(chunk))
        distances[start : start + _CHUNK] = np.maximum(
            scores[rows, idx] + x_norms, 0.0
        )
    return assignments, distances


class KMeansResult:
    """Fitted centroids plus the final assignment of the training points."""

    def __init__(
        self,
        centroids: np.ndarray,
        assignments: np.ndarray,
        inertia: float,
        iterations: int,
    ) -> None:
        self.centroids = centroids
        self.assignments = assignments
        self.inertia = inertia
        self.iterations = iterations


def _kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Seeded k-means++ seeding (D^2 sampling)."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; any pick
            # works — take a deterministic spread.
            centroids[j] = points[int(rng.integers(n))]
        else:
            draw = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(closest), draw))
            pick = min(pick, n - 1)
            centroids[j] = points[pick]
        distance = np.sum((points - centroids[j]) ** 2, axis=1)
        np.minimum(closest, distance, out=closest)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    iters: int = 10,
    seed: int = 0,
    sample: int | None = None,
    init: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd k-means with seeded k-means++ init.

    Parameters
    ----------
    points:
        ``(n, d)`` training vectors (any float dtype; math in float64).
    k:
        Number of centroids; clamped to ``n``.
    iters:
        Fixed Lloyd iteration count (determinism beats adaptive stop).
    seed:
        RNG seed for init and empty-cluster reseeding.
    sample:
        Optionally fit on a seeded subsample of at most this many
        points (codebook training on huge catalogues); the returned
        assignments still cover **all** points.
    init:
        ``(k, d)`` centroids to continue from instead of k-means++
        (``k`` after clamping).  The subsample is drawn exactly as
        without it and nothing else is drawn, so ``iters=1`` from the
        centroids of an ``iters=n`` run on the same points is the
        ``iters=n + 1`` run.  A wrong shape is an error, never a silent
        cold start.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot run k-means on zero points")
    k = max(1, min(int(k), n))
    rng = np.random.default_rng(seed)

    train = points
    if sample is not None and n > sample:
        train = points[rng.choice(n, size=sample, replace=False)]

    if init is None:
        centroids = _kmeanspp_init(train, k, rng)
    else:
        # A copy: the update below writes centroids in place, and the
        # caller's (an index still serving) must not move.
        centroids = np.array(init, dtype=np.float64)
        if centroids.shape != (k, points.shape[1]):
            raise ValueError(
                f"init must be ({k}, {points.shape[1]}), got shape {centroids.shape}"
            )
    for _ in range(max(1, int(iters))):
        assignments, distances = assign_chunked(train, centroids)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, train)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        empty = np.flatnonzero(~occupied)
        if empty.size:
            # Reseed each empty centroid to the currently worst-fit
            # point (deterministic: ranked by distance, ties by index).
            worst = np.argsort(-distances, kind="stable")[: empty.size]
            centroids[empty] = train[worst]

    assignments, distances = assign_chunked(points, centroids)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=float(distances.sum()),
        iterations=max(1, int(iters)),
    )
