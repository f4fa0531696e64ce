"""Item reorder augmentation (paper §3.3.3, Eq. 6)."""

from __future__ import annotations

import numpy as np

from repro.augment.base import Augmentation


class Reorder(Augmentation):
    """Shuffle a random contiguous sub-sequence of proportion ``beta``.

    Paper Eq. (6): a window of length ``L_r = floor(beta * n)``
    starting at a random position is permuted uniformly; everything
    outside the window keeps its order.  High ``beta`` is a strong
    augmentation and encodes the paper's *flexible order* assumption.

    Scalar contract: ``op(sequence, rng) -> view`` on one 1-D array,
    same multiset of items out as in.

    Edge cases: an empty sequence returns an empty copy; any window
    shorter than 2 — which includes every ``n <= 1`` sequence — makes
    the operator a no-op.
    """

    def __init__(self, beta: float) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.beta = beta

    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sequence = self._validate(sequence)
        n = len(sequence)
        out = sequence.copy()
        if n == 0:
            return out
        window = int(np.floor(self.beta * n))
        if window < 2:
            return out
        start = int(rng.integers(0, n - window + 1))
        segment = out[start : start + window]
        out[start : start + window] = rng.permutation(segment)
        return out

    def __repr__(self) -> str:
        return f"Reorder(beta={self.beta})"
