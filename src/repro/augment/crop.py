"""Item crop augmentation (paper §3.3.1, Eq. 4)."""

from __future__ import annotations

import numpy as np

from repro.augment.base import Augmentation


class Crop(Augmentation):
    """Keep a random contiguous sub-sequence of proportion ``eta``.

    Paper Eq. (4): for a sequence of length ``n`` the crop length is
    ``L_c = floor(eta * n)`` (at least 1), starting at a uniformly
    random position.  Small ``eta`` is a *strong* augmentation (little
    of the original view survives).

    Scalar contract: ``op(sequence, rng) -> view`` on one 1-D array —
    the output is *shorter* than the input (length ``L_c``).

    Edge cases: an empty sequence returns an empty copy; ``n == 1`` is
    a fixed point (the single item always survives via the ``max(1,
    ...)`` floor).
    """

    def __init__(self, eta: float) -> None:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        self.eta = eta

    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sequence = self._validate(sequence)
        n = len(sequence)
        if n == 0:
            return sequence.copy()
        crop_length = max(1, int(np.floor(self.eta * n)))
        start = int(rng.integers(0, n - crop_length + 1))
        return sequence[start : start + crop_length].copy()

    def __repr__(self) -> str:
        return f"Crop(eta={self.eta})"
