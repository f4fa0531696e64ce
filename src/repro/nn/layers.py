"""Standard neural-network layers.

``Linear``, ``Embedding``, ``LayerNorm`` and ``Dropout`` — the building
blocks the SASRec / CL4SRec encoder and the baselines are assembled
from.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensionality.
    bias:
        Whether to add a learnable bias (default true).
    rng:
        Generator used for Xavier-uniform weight init.  Callers that
        need another init replace ``weight`` with a new ``Parameter``
        after construction (see :class:`repro.nn.attention.MultiHeadSelfAttention`).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return x.matmul(self.weight)
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """A lookup table mapping integer ids to dense vectors.

    Index 0 is conventionally the padding id in this library; callers
    can zero its row and it will stay (near) zero because the backward
    pass only touches gathered rows (and padding positions are masked
    out of the loss).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.02,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, std, size=(num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding indices out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.take_rows(indices)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable affine."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=1e-8)

    def __repr__(self) -> str:
        return f"LayerNorm({self.dim})"


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    Randomness comes from the generator handed to the constructor so
    that training runs are reproducible end-to-end.  :meth:`draw` and
    the ``mask`` argument of :meth:`forward` split drawing a mask from
    applying it, so one draw at a batch's shape can serve several
    slices of that batch.
    """

    def __init__(self, rate: float, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def draw(self, shape: tuple[int, ...], dtype) -> np.ndarray | None:
        """A fresh mask of ``shape``, or ``None`` when inactive (eval
        mode or rate 0), which draws nothing.

        The mask is i.i.d. per element, so only the elements a step
        keeps are drawn: a trimmed batch ``(B, w, d)`` or the final
        block's last row ``(B, 1, d)`` advances the generator by one
        ``random`` call of that shape, and the stream depends on ``w``.
        """
        if not self.training or self.rate == 0.0:
            return None
        return F.dropout_mask(shape, self.rate, self._rng, dtype=dtype)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Apply ``mask``, or a fresh one drawn at ``x.shape``.

        A length-grouped encoder draws each site's mask once at the
        batch's shape and hands every group its slice of it
        (:func:`repro.nn.transformer.cut_masks`), so grouping leaves
        the generator stream as it is.
        """
        if not self.training or self.rate == 0.0:
            return x
        if mask is None:
            mask = self.draw(x.shape, x.dtype)
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout({self.rate})"
