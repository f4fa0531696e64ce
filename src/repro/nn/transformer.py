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

A caller that runs one batch as several length groups
(:class:`repro.models.encoder.SASRecEncoder`) draws every mask once at
the batch's shape (:meth:`TransformerEncoder.draw_masks`) and passes
each group its slice (:func:`cut_masks`): the stream is the one a
single ``w``-wide pass draws.  Without ``masks`` a block draws its own
at its input's shape.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs.profiling import profile_scope

#: One block's dropout masks in the order a block draws them: attention
#: probabilities, then the two residual branches.  ``None`` where a
#: dropout is inactive.
BlockMasks = tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]


def cut_masks(
    masks: list[BlockMasks], rows: np.ndarray | slice, width: int
) -> list[BlockMasks]:
    """The part of batch-shaped block masks that a group of ``rows``,
    run ``width`` wide over the batch's trailing columns, uses.

    Every position axis keeps its trailing ``width`` entries, and a
    last-row axis of 1 stays 1: ``(B, h, w, w)`` → ``[rows, :, -width:,
    -width:]``, ``(B, w, d)`` → ``[rows, -width:]``.
    """
    return [tuple(cut_mask(mask, rows, width) for mask in block) for block in masks]


def cut_mask(
    mask: np.ndarray | None, rows: np.ndarray | slice, width: int
) -> np.ndarray | None:
    """One mask of :func:`cut_masks`; ``None`` stays ``None``."""
    if mask is None:
        return None
    tail = slice(-width, None)
    if mask.ndim == 4:
        return mask[rows, :, tail, tail]
    return mask[rows, tail]


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

    def draw_masks(self, batch: int, width: int, rows: int, dtype) -> BlockMasks:
        """This block's masks for a ``(batch, width)`` input of which
        ``rows`` trailing query rows are computed (``width``, or 1 for
        :meth:`last_row`), drawn in the order :meth:`forward` uses them."""
        dim = self.norm1.dim
        return (
            self.attention.attn_dropout.draw(
                (batch, self.attention.num_heads, rows, width), dtype
            ),
            self.dropout1.draw((batch, rows, dim), dtype),
            self.dropout2.draw((batch, rows, dim), dtype),
        )

    def forward(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        masks: BlockMasks | None = None,
    ) -> Tensor:
        """``masks`` from :meth:`draw_masks`; without them each active
        dropout draws its own, in the same order, at its input's shape."""
        attn_mask, mask1, mask2 = masks or (None, None, None)
        attended = self.attention(
            x, causal=causal, key_padding_mask=key_padding_mask, dropout_mask=attn_mask
        )
        x = self.norm1(x + self.dropout1(attended, mask1))
        transformed = self.feed_forward(x)
        return self.norm2(x + self.dropout2(transformed, mask2))

    def last_row(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        masks: BlockMasks | None = None,
    ) -> Tensor:
        """``forward(x, ...)[:, -1:, :]``, computing only that row.

        Attention keys and values see every position of ``x``; the
        query, the residuals, both layer norms and the FFN run on
        ``(B, 1, d)``, and every dropout mask covers that row only.
        """
        attn_mask, mask1, mask2 = masks or (None, None, None)
        attended = self.attention.last_row(
            x, causal=causal, key_padding_mask=key_padding_mask, dropout_mask=attn_mask
        )
        x = x[:, -1:, :]
        x = self.norm1(x + self.dropout1(attended, mask1))
        transformed = self.feed_forward(x)
        return self.norm2(x + self.dropout2(transformed, mask2))


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

    def draw_masks(
        self, batch: int, width: int, last_row: bool, dtype
    ) -> list[BlockMasks]:
        """Every block's masks for a ``(batch, width)`` input, in the
        order :meth:`forward` (or, with ``last_row``, :meth:`last_row`)
        draws them.  Cut a group's part with :func:`cut_masks`."""
        final = len(self.layers) - 1
        return [
            layer.draw_masks(batch, width, 1 if last_row and i == final else width, dtype)
            for i, layer in enumerate(self.layers)
        ]

    def forward(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        masks: list[BlockMasks] | None = None,
    ) -> Tensor:
        """All positions through every block, ``masks`` from
        :meth:`draw_masks` (drawn block by block when ``None``)."""
        masks = masks or [None] * len(self.layers)
        with profile_scope("nn.encoder"):
            for layer, block_masks in zip(self.layers, masks):
                x = layer(
                    x, causal=causal, key_padding_mask=key_padding_mask, masks=block_masks
                )
            return x

    def last_row(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        masks: list[BlockMasks] | None = None,
    ) -> Tensor:
        """``forward(x, ...)[:, -1:, :]``: every block but the final one
        runs at all positions, the final one computes only the row that
        is read (:meth:`TransformerEncoderLayer.last_row`)."""
        *inner_masks, final_masks = masks or [None] * len(self.layers)
        with profile_scope("nn.encoder"):
            *inner, final = self.layers
            for layer, block_masks in zip(inner, inner_masks):
                x = layer(
                    x, causal=causal, key_padding_mask=key_padding_mask, masks=block_masks
                )
            return final.last_row(
                x, causal=causal, key_padding_mask=key_padding_mask, masks=final_masks
            )
