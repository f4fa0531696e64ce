"""Multi-head scaled dot-product self-attention (paper §3.4.2).

Supports the causal mask the paper applies so that the representation
at step *t* only depends on items at steps ≤ *t*, plus a key-padding
mask so left-padded batch positions contribute nothing.

Two forward bodies, chosen by state the layer can observe
-----------------------------------------------------------
The layer carries one packed ``(d, 3d)`` QKV projection instead of
three ``(d, d)`` linears (one BLAS call; the init draws the three
Xavier blocks from the shared generator in the legacy q, k, v order, so
seeded models are unchanged), and pulls its masks from the shape-keyed
cache in :mod:`repro.nn.compute`.

* In grad mode, or with dropout active, attention is one autograd node,
  :func:`repro.nn.functional.fused_attention`.
* In no-grad mode with dropout off (eval, serving), it runs on raw
  numpy with a pooled scratch buffer for the ``(B, h, T, T)`` scores.

Both bodies perform the same floating-point operations per value, so
they agree to the last bit given the same parameters.

:meth:`MultiHeadSelfAttention.last_row` runs the same two bodies on
one query row, the last, for callers that read nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.nn import compute, init
from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.obs.profiling import profile_scope

_NEG_INF = -1e9


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention with optional causal + padding masks.

    Parameters
    ----------
    dim:
        Model dimensionality ``d``; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads ``h`` (the paper uses 2).
    dropout:
        Dropout rate applied to the attention probabilities.
    rng:
        Generator for parameter init and dropout masks.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} must be divisible by num_heads={num_heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        # One packed (d, 3d) projection.  The throwaway generator below
        # never reaches the weights: the real init must draw three
        # (d, d) Xavier blocks from the shared `rng` in the legacy
        # q, k, v order so seeded parameters match the unpacked layout
        # column for column (and out_proj sees the same stream state).
        self.qkv_proj = Linear(dim, 3 * dim, rng=np.random.default_rng(0))
        self.qkv_proj.weight = Parameter(
            np.concatenate(
                [init.xavier_uniform((dim, dim), rng) for __ in range(3)], axis=1
            )
        )
        self.out_proj = Linear(dim, dim, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        dropout_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend within each sequence of the batch.

        Parameters
        ----------
        x:
            Input of shape ``(batch, length, dim)``.
        causal:
            Apply the upper-triangular future mask (default true, per
            the paper's next-item objective).
        key_padding_mask:
            Optional boolean ``(batch, length)`` array where ``True``
            marks padding positions that must never be attended to.

        dropout_mask:
            A mask for the probabilities that the caller drew (a length
            group's slice of its batch's mask); with ``None`` an active
            dropout draws one here, at ``(batch, heads, length,
            length)``.
        """
        return self._attend(x, causal, key_padding_mask, dropout_mask, last_row=False)

    def last_row(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        dropout_mask: np.ndarray | None = None,
    ) -> Tensor:
        """``forward(x, ...)[:, -1:, :]``, computing only that query row.

        Keys and values span every position of ``x``; the query, the
        attention row and the output projection run on ``(B, 1, d)``.
        An active dropout uses only that row's mask, ``(B, h, 1,
        length)``, drawn here when ``dropout_mask`` is ``None``.
        """
        return self._attend(x, causal, key_padding_mask, dropout_mask, last_row=True)

    def _attend(
        self,
        x: Tensor,
        causal: bool,
        key_padding_mask: np.ndarray | None,
        dropout_mask: np.ndarray | None,
        last_row: bool,
    ) -> Tensor:
        with profile_scope("nn.attention"):
            batch, width, __ = x.shape
            # Python float, not np.float64: a numpy scalar is "strong"
            # under NEP 50 and would upcast float32 activations.
            scale = 1.0 / float(np.sqrt(self.head_dim))
            if key_padding_mask is None:
                # Nothing batch-specific: the cached (T, T) triangle
                # broadcasts directly, or there is no mask at all.
                mask = compute.MASKS.causal(width) if causal else None
            else:
                mask = compute.MASKS.combined(causal, key_padding_mask, width)

            dropout_active = self.training and self.attn_dropout.rate > 0.0
            if not is_grad_enabled() and not dropout_active:
                return self._attend_inference(x, mask, scale, last_row)

            qkv = F.linear(x, self.qkv_proj.weight, self.qkv_proj.bias)
            drop = dropout_mask
            if drop is None:
                drop = self.attn_dropout.draw(
                    (batch, self.num_heads, 1 if last_row else width, width),
                    x.data.dtype,
                )
            context = F.fused_attention(
                qkv,
                mask,
                self.num_heads,
                scale,
                fill=_NEG_INF,
                dropout_mask=drop,
                last_row=last_row,
            )
            return self.out_proj(context)

    def _attend_inference(
        self,
        x: Tensor,
        mask: np.ndarray | None,
        scale: float,
        last_row: bool,
    ) -> Tensor:
        """No-grad forward on raw numpy with pooled scratch buffers.

        Same floating-point operations as :func:`F.fused_attention`,
        ``last_row`` included — the softmax runs in place on the pooled
        ``(B, h, rows, T)`` scores buffer, which no graph node retains
        (callers are inside ``no_grad()``) and the next call reuses.
        """
        batch, length, __ = x.shape
        dtype = x.data.dtype
        queries = slice(-1, None) if last_row else slice(None)
        rows = 1 if last_row else length
        qkv = np.matmul(x.data, self.qkv_proj.weight.data) + self.qkv_proj.bias.data
        parts = qkv.reshape(batch, length, 3, self.num_heads, self.head_dim)
        q = np.ascontiguousarray(parts[:, queries, 0].transpose(0, 2, 1, 3))
        # Contiguous k, as in the grad kernel: one query row makes
        # `q @ kᵀ` a BLAS gemv, whose float32 rounding depends on the
        # operand's row stride (a gemm packs its operands and does not).
        k = np.ascontiguousarray(parts[:, :, 1].transpose(0, 2, 1, 3))
        v = parts[:, :, 2].transpose(0, 2, 1, 3)

        scores = compute.SCRATCH.get(
            "attn.scores", (batch, self.num_heads, rows, length), dtype
        )
        np.matmul(q, k.swapaxes(-1, -2), out=scores)
        scores *= scale
        if mask is not None:
            np.copyto(scores, _NEG_INF, where=mask[..., queries, :])
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)

        context = np.matmul(scores, v)  # (B, h, rows, dh)
        context = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(
            batch, rows, self.dim
        )
        return Tensor(
            np.matmul(context, self.out_proj.weight.data) + self.out_proj.bias.data
        )
