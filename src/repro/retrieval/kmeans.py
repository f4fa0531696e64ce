"""Deterministic, chunked Lloyd k-means for retrieval structures.

Both the IVF coarse quantizer and the product-quantizer codebooks are
plain k-means problems; this module is the single seeded implementation
they share: :func:`kmeans_stack` fits ``m`` point sets (the PQ
sub-spaces) with one k-means++ seeding pass, and :func:`kmeans` (the
coarse quantizer) is a stack of one.  Design constraints, in order:

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

__all__ = ["KMeansResult", "assign_chunked", "kmeans", "kmeans_stack"]

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


def _squared_distances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(m, n)`` squared L2 distances of each set's points to its center.

    ``columns`` is the ``(m, d, n)`` layout of ``m`` point sets, so each
    term is one ``(m, n)`` vector operation instead of a width-``d``
    reduction per point.  The ``d`` squared differences are added in the
    order ``np.sum(axis=-1)`` adds a row (see :func:`_pairwise_sum`), so
    each distance equals ``np.sum((points - center) ** 2, axis=1)`` bit
    for bit.
    """

    def square(i: int) -> np.ndarray:
        diff = columns[:, i] - centers[:, i, None]
        diff *= diff
        return diff

    return _pairwise_sum(square, 0, columns.shape[1])


def _pairwise_sum(term, start: int, count: int) -> np.ndarray:
    """``term(start) + … + term(start + count - 1)`` in numpy's order.

    numpy's float reduction over a contiguous axis adds fewer than 8
    values one after another; up to 128 values into 8 interleaved
    accumulators, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    then the remainder one after another; and more by halving at a
    multiple of 8.  ``tests/retrieval/test_kmeans.py`` pins the mirror.
    """
    stop = start + count
    if count < 8:
        total = term(start)
        for i in range(start + 1, stop):
            total += term(i)
        return total
    if count <= 128:
        acc = [term(start + j) for j in range(8)]
        tail = stop - count % 8
        for i in range(start + 8, tail, 8):
            for j in range(8):
                acc[j] += term(i + j)
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for i in range(tail, stop):
            total += term(i)
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(term, start, half) + _pairwise_sum(
        term, start + half, count - half
    )


def _kmeanspp_init(
    stack: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Seeded k-means++ seeding (D^2 sampling) of ``m`` point sets at once.

    ``stack`` is ``(m, n, d)``; set ``s`` draws from ``rngs[s]`` alone,
    in the order a seeding of that set by itself would, so its
    ``(k, d)`` seeds do not depend on the other sets.  Returns
    ``(m, k, d)``.
    """
    m, n, d = stack.shape
    columns = np.ascontiguousarray(stack.transpose(0, 2, 1))
    sets = np.arange(m)
    centroids = np.empty((m, k, d), dtype=np.float64)
    picks = np.array([rng.integers(n) for rng in rngs], dtype=np.int64)
    centroids[:, 0] = stack[sets, picks]
    closest = _squared_distances(columns, centroids[:, 0])
    for j in range(1, k):
        totals = closest.sum(axis=1)
        cumulative = np.cumsum(closest, axis=1)
        for s, rng in enumerate(rngs):
            if totals[s] <= 0.0:
                # All remaining points coincide with a centroid; any
                # pick works — take a deterministic spread.
                picks[s] = rng.integers(n)
            else:
                draw = rng.random() * totals[s]
                picks[s] = min(int(np.searchsorted(cumulative[s], draw)), n - 1)
        centroids[:, j] = stack[sets, picks]
        np.minimum(closest, _squared_distances(columns, centroids[:, j]), out=closest)
    return centroids


def kmeans(
    points: np.ndarray, k: int, iters: int = 10, seed: int = 0
) -> KMeansResult:
    """Lloyd k-means with seeded k-means++ init on ``(n, d)`` points.

    :func:`kmeans_stack` on a stack of one: ``k`` is clamped to ``n``,
    ``iters`` Lloyd steps follow the seeding, the math is float64.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    return kmeans_stack(points[None], k, iters=iters, seed=seed)[0]


def kmeans_stack(
    stack: np.ndarray,
    k: int,
    iters: int = 10,
    seed: int = 0,
    sample: int | None = None,
    init: list[np.ndarray] | np.ndarray | None = None,
) -> list[KMeansResult]:
    """Lloyd k-means on each of ``m`` point sets, seeded in one pass.

    Each set gets exactly what it would get fitted alone, as a stack of
    one.  Only the k-means++
    seeding runs over the whole stack: it is ``k - 1`` sequential draws
    per set, so one pass instead of ``m`` is what saves time.  The Lloyd
    steps run one set at a time, since an ``(m, n, k)`` score block would
    not fit in cache.

    Parameters
    ----------
    stack:
        ``(m, n, d)`` training vectors (any float dtype; math in float64).
    k:
        Number of centroids per set; clamped to ``n``.
    iters:
        Fixed Lloyd iteration count (determinism beats adaptive stop).
    seed:
        RNG seed of set 0; set ``s`` draws its subsample and its
        k-means++ init from ``default_rng(seed + s)``.
    sample:
        Optionally fit each set on a seeded subsample of at most this
        many points (codebook training on huge catalogues); the returned
        assignments still cover **all** points.
    init:
        ``m`` arrays of ``(k, d)`` centroids to continue from instead of
        k-means++ (``k`` after clamping).  The subsample is drawn
        exactly as without it and nothing else is drawn, so ``iters=1``
        from the centroids of an ``iters=n`` run on the same points is
        the ``iters=n + 1`` run.  A wrong shape is an error, never a
        silent cold start.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"stack must be (m, n, d), got shape {stack.shape}")
    m, n, d = stack.shape
    if n == 0:
        raise ValueError("cannot run k-means on zero points")
    k = max(1, min(int(k), n))
    rngs = [np.random.default_rng(seed + s) for s in range(m)]
    trains = [
        stack[s][rng.choice(n, size=sample, replace=False)]
        if sample is not None and n > sample
        else stack[s]
        for s, rng in enumerate(rngs)
    ]

    if init is None:
        starts = list(_kmeanspp_init(np.stack(trains), k, rngs))
    else:
        # A copy: the update below writes centroids in place, and the
        # caller's (an index still serving) must not move.
        starts = [np.array(c, dtype=np.float64) for c in init]
        for centroids in starts:
            if centroids.shape != (k, d):
                raise ValueError(
                    f"init must be ({k}, {d}), got shape {centroids.shape}"
                )
    results = []
    for s, (train, centroids) in enumerate(zip(trains, starts)):
        _lloyd(train, centroids, iters)
        assignments, distances = assign_chunked(stack[s], centroids)
        results.append(
            KMeansResult(
                centroids=centroids,
                assignments=assignments,
                inertia=float(distances.sum()),
                iterations=max(1, int(iters)),
            )
        )
    return results


def _lloyd(train: np.ndarray, centroids: np.ndarray, iters: int) -> None:
    """``max(1, iters)`` Lloyd steps on ``centroids``, in place."""
    k = centroids.shape[0]
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
