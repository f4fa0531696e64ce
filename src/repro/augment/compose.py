"""Pairing of augmentation operators.

:class:`PairSampler` implements the paper's §3.2.1 module: for each
user sequence, two operators ``a_i, a_j`` are sampled from the
augmentation set (independently, with replacement) and applied to the
same sequence, producing the two correlated views of a positive pair.
It works on one sequence per call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.augment.base import Augmentation


class PairSampler:
    """Sample two augmentations from a set and produce a positive pair.

    Parameters
    ----------
    operators:
        The augmentation set :math:`\\mathcal{A}`.  With a single
        operator both views use it (with independent randomness), which
        is how the paper's per-operator study (Figure 4) is run.
    distinct:
        When true and at least two operators are available, the two
        sampled operators are forced to differ — the setting of the
        composition study (Figure 5), which applies two *different*
        methods to the same sequence.
    """

    def __init__(self, operators: Sequence[Augmentation], distinct: bool = False) -> None:
        if not operators:
            raise ValueError("PairSampler requires at least one operator")
        self.operators = list(operators)
        self.distinct = distinct and len(self.operators) >= 2

    def __call__(
        self, sequence: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return two augmented views of ``sequence``."""
        first = int(rng.integers(0, len(self.operators)))
        if self.distinct:
            offset = int(rng.integers(1, len(self.operators)))
            second = (first + offset) % len(self.operators)
        else:
            second = int(rng.integers(0, len(self.operators)))
        view_a = self.operators[first](sequence, rng)
        view_b = self.operators[second](sequence, rng)
        return view_a, view_b

    def __repr__(self) -> str:
        inner = ", ".join(repr(op) for op in self.operators)
        return f"PairSampler([{inner}], distinct={self.distinct})"
