"""Partial-sort top-k selection shared by evaluation and serving.

Full ranking (``np.argsort``) is O(n log n) per user over the whole
catalogue; a serving path that only ever returns the best ``k`` items
can do O(n + k log k) instead via ``np.argpartition``.  This module is
the single implementation both sides use, so the engine's output is
guaranteed to match the evaluation protocol.

Tie-breaking is fully deterministic: equal scores rank by ascending
item index, so the result is always bit-identical to
``np.argsort(-scores, kind="stable")[:k]`` — including when ties
straddle the k-th position.  ``argpartition`` makes an arbitrary choice
among boundary ties, so after partitioning we detect rows whose
threshold value also occurs outside the selected set and repair them to
keep the smallest tied indices.  That total-order guarantee is what
lets exact-vs-rerank retrieval comparisons assert *equality* instead of
set overlap.
"""

from __future__ import annotations

import numpy as np


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries, sorted by descending score.

    Parameters
    ----------
    scores:
        1-D ``(n,)`` or 2-D ``(batch, n)`` array; rows are ranked
        independently along the last axis.
    k:
        Number of indices to return; clamped to ``n`` when larger.

    Returns
    -------
    ``(k,)`` or ``(batch, k)`` int64 indices, best first.  Equal scores
    order by ascending index (stable), matching a full stable sort of
    ``-scores`` even when ties cross the k-th position.
    """
    scores = np.asarray(scores)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if scores.ndim not in (1, 2):
        raise ValueError(f"scores must be 1-D or 2-D, got shape {scores.shape}")
    n = scores.shape[-1]
    k = min(k, n)
    if k >= n:
        return np.argsort(-scores, axis=-1, kind="stable").astype(np.int64)
    partition = np.argpartition(-scores, k - 1, axis=-1)[..., :k]
    # Canonicalize the (arbitrary) partition order so equal scores
    # resolve by ascending original index under the stable sort below.
    partition.sort(axis=-1)

    # Boundary-tie repair: when the k-th value also occurs outside the
    # selected set, argpartition's pick among the tied items is
    # unspecified — replace it with the smallest tied indices so the
    # result matches the stable full sort.  Detection is whole-array
    # (two equality reductions); the repair itself only runs on the
    # offending rows, which are rare for real-valued scores.
    scores_2d = scores[np.newaxis] if scores.ndim == 1 else scores
    part_2d = partition[np.newaxis] if scores.ndim == 1 else partition
    rows = np.arange(part_2d.shape[0])[:, np.newaxis]
    top_scores = scores_2d[rows, part_2d]
    threshold = top_scores.min(axis=-1)
    ties_total = (scores_2d == threshold[:, None]).sum(axis=-1)
    ties_in_top = (top_scores == threshold[:, None]).sum(axis=-1)
    for row in np.flatnonzero(ties_total > ties_in_top):
        row_scores = scores_2d[row]
        keep = part_2d[row][row_scores[part_2d[row]] > threshold[row]]
        tied = np.flatnonzero(row_scores == threshold[row])[: k - keep.size]
        part_2d[row] = np.sort(np.concatenate([keep, tied]))
        top_scores[row] = row_scores[part_2d[row]]

    order = np.argsort(-top_scores, axis=-1, kind="stable")
    result = part_2d[rows, order].astype(np.int64, copy=False)
    return result[0] if scores.ndim == 1 else result
