"""Augmentation protocol shared by all operators."""

from __future__ import annotations

import abc

import numpy as np


class Augmentation(abc.ABC):
    """A stochastic transformation of an item sequence.

    Implementations must be pure given the generator: the input array
    is never modified in place, and the same generator state produces
    the same view.  An operator transforms one unpadded 1-D sequence
    per call, as the paper defines it (§3.3).
    """

    @abc.abstractmethod
    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a transformed copy of ``sequence``."""

    @staticmethod
    def _validate(sequence: np.ndarray) -> np.ndarray:
        sequence = np.asarray(sequence, dtype=np.int64)
        if sequence.ndim != 1:
            raise ValueError(f"sequences must be 1-D, got shape {sequence.shape}")
        return sequence


class Identity(Augmentation):
    """No-op augmentation (useful as an ablation control)."""

    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._validate(sequence).copy()

    def __repr__(self) -> str:
        return "Identity()"
