"""Transformer encoder blocks (paper §3.4).

Each block is the post-norm residual composition the paper writes out
in Eq. (14):

.. math::

    F = \\mathrm{LayerNorm}(H + \\mathrm{Dropout}(\\mathrm{MH}(H)))

    \\mathrm{Trm}(H) = \\mathrm{LayerNorm}(F + \\mathrm{Dropout}(\\mathrm{PFFN}(F)))

with a position-wise feed-forward network
``FFN(h) = ReLU(h W1 + b1) W2 + b2`` (Eq. 11).  Each op has one grad
kernel: attention is :func:`repro.nn.functional.fused_attention`, the
FFN's inner step :func:`repro.nn.functional.fused_linear_act`.

``forward`` returns every position; ``last_row`` returns the last one
only and lets the final block skip the rows nobody reads (the user
representation, Eq. 13).  Every dropout mask is drawn at the shape it
drops — ``(B, w, d)`` and ``(B, h, w, w)`` for a ``w``-wide input, ``(B,
1, d)`` and ``(B, h, 1, w)`` on the final block's last row — so the
generator stream depends on the width a step keeps.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs.profiling import profile_scope


class PositionwiseFeedForward(Module):
    """Two-layer position-wise MLP with the paper's ReLU (Eq. 11).

    The inner step ``relu(x W1 + b1)`` runs as one graph node, the
    fused :func:`repro.nn.functional.fused_linear_act` kernel.
    """

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = F.fused_linear_act(x, self.fc1.weight, self.fc1.bias)
        return self.fc2(hidden)


class TransformerEncoderLayer(Module):
    """One Trm block: self-attention + PFFN, each with residual,
    dropout and post-layer-norm (Eq. 12/14)."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        hidden_dim: int | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        hidden_dim = hidden_dim if hidden_dim is not None else 4 * dim
        self.attention = MultiHeadSelfAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.feed_forward = PositionwiseFeedForward(dim, hidden_dim, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.dropout1 = Dropout(dropout, rng=rng)
        self.dropout2 = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
    ) -> Tensor:
        attended = self.attention(x, causal=causal, key_padding_mask=key_padding_mask)
        x = self.norm1(x + self.dropout1(attended))
        transformed = self.feed_forward(x)
        return self.norm2(x + self.dropout2(transformed))

    def last_row(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
    ) -> Tensor:
        """``forward(x, ...)[:, -1:, :]``, computing only that row.

        Attention keys and values see every position of ``x``; the
        query, the residuals, both layer norms and the FFN run on
        ``(B, 1, d)``, and every dropout mask is drawn for that row only.
        """
        attended = self.attention.last_row(
            x, causal=causal, key_padding_mask=key_padding_mask
        )
        x = x[:, -1:, :]
        x = self.norm1(x + self.dropout1(attended))
        transformed = self.feed_forward(x)
        return self.norm2(x + self.dropout2(transformed))


class TransformerEncoder(Module):
    """A stack of :class:`TransformerEncoderLayer` blocks (paper: L=2)."""

    def __init__(
        self,
        num_layers: int,
        dim: int,
        num_heads: int,
        hidden_dim: int | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        self.layers: list[TransformerEncoderLayer] = []
        for i in range(num_layers):
            layer = TransformerEncoderLayer(
                dim, num_heads, hidden_dim=hidden_dim, dropout=dropout, rng=rng
            )
            self.add_module(f"layer{i}", layer)
            self.layers.append(layer)

    def forward(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
    ) -> Tensor:
        with profile_scope("nn.encoder"):
            for layer in self.layers:
                x = layer(x, causal=causal, key_padding_mask=key_padding_mask)
            return x

    def last_row(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
    ) -> Tensor:
        """``forward(x, ...)[:, -1:, :]``: every block but the final one
        runs at all positions, the final one computes only the row that
        is read (:meth:`TransformerEncoderLayer.last_row`)."""
        with profile_scope("nn.encoder"):
            *inner, final = self.layers
            for layer in inner:
                x = layer(x, causal=causal, key_padding_mask=key_padding_mask)
            return final.last_row(x, causal=causal, key_padding_mask=key_padding_mask)
