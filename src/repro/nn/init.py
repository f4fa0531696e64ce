"""Weight initialization schemes.

The paper (§4.1.4) initializes all parameters from a truncated normal
distribution restricted to ``[-0.01, 0.01]``; :func:`truncated_normal`
implements that via rejection-free inverse-CDF sampling.  Linear layers
and the packed attention projection start from Xavier-uniform.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def truncated_normal(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    mean: float = 0.0,
    std: float = 0.02,
    low: float = -0.01,
    high: float = 0.01,
) -> np.ndarray:
    """Sample a truncated normal restricted to ``[low, high]``.

    Uses the inverse-CDF method via :mod:`scipy.stats.truncnorm`, so no
    rejection loop is needed and the output is deterministic given the
    generator state.
    """
    a = (low - mean) / std
    b = (high - mean) / std
    u = rng.random(shape)
    return stats.truncnorm.ppf(u, a, b, loc=mean, scale=std)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization for 2-D weights."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases, layer-norm shift)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-one initialization (layer-norm scale)."""
    return np.ones(shape, dtype=np.float64)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer shapes must have at least one axis")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
