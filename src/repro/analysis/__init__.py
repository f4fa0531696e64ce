"""Representation-quality analysis tools.

Standard diagnostics from the contrastive-learning literature, used to
*explain* why CL4SRec's pre-training helps:

* :func:`alignment` / :func:`uniformity` — Wang & Isola (2020) metrics
  on the hypersphere: good contrastive representations place positive
  pairs close (low alignment loss) while spreading all representations
  out (low uniformity loss).
* :func:`embedding_statistics` — norms/anisotropy of the item table.
* :class:`ConvergenceTracker` — per-epoch validation curves, used to
  verify the paper's observation that pre-training warms up (speeds up)
  fine-tuning convergence.
"""

from repro.analysis.representation import (
    ConvergenceTracker,
    alignment,
    embedding_statistics,
    representation_quality,
    uniformity,
)

__all__ = [
    "ConvergenceTracker",
    "alignment",
    "embedding_statistics",
    "representation_quality",
    "uniformity",
]
