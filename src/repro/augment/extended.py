"""Informative augmentations beyond the paper's three operators.

CL4SRec's random crop/mask/reorder spawned follow-up work on
*informative* augmentations that respect item semantics — CoSeRec
(Liu et al., 2021) adds **substitute** (swap items for correlated ones)
and **insert** (inject correlated items).  They are implemented here as
the repository's future-work extension, driven by the co-occurrence
statistics in :class:`repro.augment.correlation.ItemCorrelation`.

These operators have no hand-written matrix form; under
``pipeline="vectorized"`` they run through
:class:`repro.augment.batched.BatchScalarFallback`, which loops rows
but still benefits from precomputed padding.
"""

from __future__ import annotations

import numpy as np

from repro.augment.base import Augmentation
from repro.augment.correlation import ItemCorrelation


class Substitute(Augmentation):
    """Replace a proportion ``rho`` of items with correlated items.

    Unlike :class:`repro.augment.mask.Mask`, the replacement carries
    information: each substituted position receives an item that
    co-occurs with the original, preserving the semantics of the view.
    """

    def __init__(self, rho: float, correlation: ItemCorrelation) -> None:
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.rho = rho
        self.correlation = correlation

    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sequence = self._validate(sequence)
        n = len(sequence)
        out = sequence.copy()
        if n == 0:
            return out
        count = int(np.floor(self.rho * n))
        if count == 0:
            return out
        positions = rng.choice(n, size=count, replace=False)
        for position in positions:
            out[position] = self.correlation.sample_similar(
                int(out[position]), rng
            )
        return out

    def __repr__(self) -> str:
        return f"Substitute(rho={self.rho})"


class Insert(Augmentation):
    """Insert correlated items after a proportion ``mu`` of positions.

    Lengthens the sequence; callers relying on fixed lengths should
    re-truncate (the batch loaders do, via left-padding).
    """

    def __init__(self, mu: float, correlation: ItemCorrelation) -> None:
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {mu}")
        self.mu = mu
        self.correlation = correlation

    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sequence = self._validate(sequence)
        n = len(sequence)
        if n == 0:
            return sequence.copy()
        count = int(np.floor(self.mu * n))
        if count == 0:
            return sequence.copy()
        positions = set(
            int(p) for p in rng.choice(n, size=count, replace=False)
        )
        pieces: list[int] = []
        for index, item in enumerate(sequence):
            pieces.append(int(item))
            if index in positions:
                pieces.append(
                    self.correlation.sample_similar(int(item), rng)
                )
        return np.asarray(pieces, dtype=np.int64)

    def __repr__(self) -> str:
        return f"Insert(mu={self.mu})"
