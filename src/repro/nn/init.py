"""Weight initialization schemes.

The paper (§4.1.4) initializes all parameters from a truncated normal
distribution restricted to ``[-0.01, 0.01]``; :func:`truncated_normal`
implements that by inverse-CDF sampling in closed form over
:mod:`scipy.special` (``ndtr``/``ndtri``, which :mod:`repro.nn.functional`
loads anyway).  So ``import repro`` never loads :mod:`scipy.stats`,
which was more than half of a fresh process's start-up
(docs/PERFORMANCE.md, "Start-up").  Linear layers and the packed
attention projection start from Xavier-uniform.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri


def truncated_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Sample N(0, 0.02²) truncated to ``[-0.01, 0.01]``.

    Inverse CDF: one uniform ``u`` per entry maps to
    ``std · Φ⁻¹(Φ(a) + u · (Φ(b) − Φ(a)))`` with ``a, b = ∓0.01 / std``,
    so no rejection loop is needed and the output is deterministic given
    the generator state.  It equals ``scipy.stats.truncnorm.ppf`` once
    rounded to float32, the precision every :class:`Parameter` keeps
    (``tests/nn/test_init.py``).
    """
    std = 0.02
    low, high = ndtr(-0.01 / std), ndtr(0.01 / std)
    u = rng.random(shape)
    return std * ndtri(low + u * (high - low))


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
