"""Item mask augmentation (paper §3.3.2, Eq. 5)."""

from __future__ import annotations

import numpy as np

from repro.augment.base import Augmentation


class Mask(Augmentation):
    """Replace a random proportion ``gamma`` of items with ``[mask]``.

    Paper Eq. (5): ``L_m = floor(gamma * n)`` positions are chosen
    uniformly without replacement and overwritten with ``mask_token``.
    The sequence length is preserved.  High ``gamma`` is a strong
    augmentation.

    Scalar contract: ``op(sequence, rng) -> view`` on one 1-D array,
    same length out as in.

    Edge cases: an empty sequence returns an empty copy; ``n == 1``
    is masked only when ``gamma == 1`` (``floor`` rounds the count to
    zero below that).

    Parameters
    ----------
    gamma:
        Mask proportion in ``[0, 1]``.
    mask_token:
        Item id of the special ``[mask]`` item — conventionally
        ``dataset.mask_token`` (``num_items + 1``).
    """

    def __init__(self, gamma: float, mask_token: int) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if mask_token <= 0:
            raise ValueError(f"mask_token must be a positive id, got {mask_token}")
        self.gamma = gamma
        self.mask_token = mask_token

    def __call__(self, sequence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sequence = self._validate(sequence)
        n = len(sequence)
        out = sequence.copy()
        if n == 0:
            return out
        num_masked = int(np.floor(self.gamma * n))
        if num_masked == 0:
            return out
        positions = rng.choice(n, size=num_masked, replace=False)
        out[positions] = self.mask_token
        return out

    def __repr__(self) -> str:
        return f"Mask(gamma={self.gamma}, mask_token={self.mask_token})"
