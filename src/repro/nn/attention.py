"""Multi-head scaled dot-product self-attention (paper §3.4.2).

Supports the causal mask the paper applies so that the representation
at step *t* only depends on items at steps ≤ *t*, plus a key-padding
mask so left-padded batch positions contribute nothing.

Compute-core fast path
----------------------
The layer carries one packed ``(d, 3d)`` QKV projection instead of
three ``(d, d)`` linears (one BLAS call; the init draws the three
Xavier blocks from the shared generator in the legacy q, k, v order, so
seeded models are unchanged).  The fused forward folds score scaling,
mask fill, and softmax into :func:`repro.nn.functional.masked_softmax`,
pulls its masks from the shape-keyed cache in
:mod:`repro.nn.compute`, and — in no-grad paths with dropout inactive —
runs entirely on raw numpy with reusable scratch buffers for the
``(B, h, T, T)`` scores.  ``repro.nn.compute.use_fused(False)``
restores the seed's op-for-op composition (three sliced projections,
per-call mask allocation, ``masked_fill`` + ``softmax``); both paths
perform the same floating-point operations per value, so they agree to
the last bit given the same parameters.
"""

from __future__ import annotations

import numpy as np

from repro.nn import compute, init
from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.obs.profiling import profile_scope

_NEG_INF = -1e9


def causal_mask(length: int) -> np.ndarray:
    """Boolean ``(length, length)`` mask; ``True`` marks disallowed
    (future) connections, i.e. key position > query position.

    Allocates a fresh (writable) array; the hot path uses the shared
    cache in :data:`repro.nn.compute.MASKS` instead.
    """
    return np.triu(np.ones((length, length), dtype=bool), k=1)


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
        self.qkv_proj.weight.data = np.concatenate(
            [init.xavier_uniform((dim, dim), rng) for __ in range(3)], axis=1
        )
        self.out_proj = Linear(dim, dim, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        causal: bool = True,
        key_padding_mask: np.ndarray | None = None,
        return_probs: bool = False,
    ):
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
        return_probs:
            When true, also return the post-softmax attention
            probabilities as a raw ``(batch, heads, length, length)``
            array (pre-dropout; for analysis, not for training).
        """
        with profile_scope("nn.attention"):
            if compute.fused_enabled():
                return self._attend(x, causal, key_padding_mask, return_probs)
            return self._attend_reference(x, causal, key_padding_mask, return_probs)

    # ------------------------------------------------------------------
    # Fused path
    # ------------------------------------------------------------------
    def _mask(
        self, batch: int, length: int, causal: bool, key_padding_mask
    ) -> np.ndarray | None:
        """The combined attention mask, from the shape-keyed cache.

        Without a padding mask there is nothing batch-specific: the
        cached ``(T, T)`` causal triangle broadcasts directly (no
        ``(B, 1, T, T)`` materialization), or no mask at all.
        """
        if key_padding_mask is None:
            return compute.MASKS.causal(length) if causal else None
        return compute.MASKS.combined(causal, key_padding_mask, length)

    def _attend(
        self,
        x: Tensor,
        causal: bool,
        key_padding_mask: np.ndarray | None,
        return_probs: bool,
    ):
        batch, length, __ = x.shape
        # Python float, not np.float64: a numpy scalar is "strong" under
        # NEP 50 and would upcast float32 activations to float64.
        scale = 1.0 / float(np.sqrt(self.head_dim))
        mask = self._mask(batch, length, causal, key_padding_mask)

        dropout_active = self.training and self.attn_dropout.rate > 0.0
        if not is_grad_enabled() and not return_probs and not dropout_active:
            return self._attend_inference(x, mask, scale, batch, length)

        qkv = F.linear(x, self.qkv_proj.weight, self.qkv_proj.bias)
        if not return_probs:
            # Single-node attention core: identical arithmetic to the
            # composition below, one backward, no scatter buffers.
            drop = None
            if dropout_active:
                drop = F.dropout_mask(
                    (batch, self.num_heads, length, length),
                    self.attn_dropout.rate,
                    self.attn_dropout._rng,
                    dtype=x.data.dtype,
                )
            context = F.fused_attention(
                qkv, mask, self.num_heads, scale, fill=_NEG_INF, dropout_mask=drop
            )
            return self.out_proj(context)

        q, k, v = F.split_qkv_heads(qkv, self.num_heads)
        scores = q.matmul(k.swapaxes(-1, -2))  # (B, h, T, T)
        probs = F.masked_softmax(scores, mask, axis=-1, scale=scale, fill=_NEG_INF)
        raw_probs = probs.data.copy()
        probs = self.attn_dropout(probs)
        context = probs.matmul(v)  # (B, h, T, dh)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        out = self.out_proj(context)
        return out, raw_probs

    def _attend_inference(
        self,
        x: Tensor,
        mask: np.ndarray | None,
        scale: float,
        batch: int,
        length: int,
    ) -> Tensor:
        """No-grad forward on raw numpy with pooled scratch buffers.

        Same floating-point operations as the fused Tensor path — the
        softmax runs in place on the pooled scores buffer, which no
        graph node retains (callers are inside ``no_grad()``).
        """
        dtype = x.data.dtype
        qkv = np.matmul(x.data, self.qkv_proj.weight.data) + self.qkv_proj.bias.data
        parts = qkv.reshape(batch, length, 3, self.num_heads, self.head_dim)
        q = np.ascontiguousarray(parts[:, :, 0].transpose(0, 2, 1, 3))
        k = parts[:, :, 1].transpose(0, 2, 1, 3)
        v = parts[:, :, 2].transpose(0, 2, 1, 3)

        scores = compute.SCRATCH.get(
            "attn.scores", (batch, self.num_heads, length, length), dtype
        )
        np.matmul(q, k.swapaxes(-1, -2), out=scores)
        scores *= scale
        if mask is not None:
            np.copyto(scores, _NEG_INF, where=mask)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)

        context = np.matmul(scores, v)  # (B, h, T, dh)
        context = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(
            batch, length, self.dim
        )
        out = np.matmul(context, self.out_proj.weight.data) + self.out_proj.bias.data
        return Tensor(out)

    # ------------------------------------------------------------------
    # Reference (unfused) path — the seed's op-for-op composition
    # ------------------------------------------------------------------
    def _attend_reference(
        self,
        x: Tensor,
        causal: bool,
        key_padding_mask: np.ndarray | None,
        return_probs: bool,
    ):
        batch, length, __ = x.shape
        weight, bias, d = self.qkv_proj.weight, self.qkv_proj.bias, self.dim
        q = self._split_heads(
            x.matmul(weight[:, :d]) + bias[:d], batch, length
        )
        k = self._split_heads(
            x.matmul(weight[:, d : 2 * d]) + bias[d : 2 * d], batch, length
        )
        v = self._split_heads(
            x.matmul(weight[:, 2 * d :]) + bias[2 * d :], batch, length
        )

        scale = 1.0 / float(np.sqrt(self.head_dim))
        scores = q.matmul(k.swapaxes(-1, -2)) * scale  # (B, h, T, T)

        mask = np.zeros((batch, 1, length, length), dtype=bool)
        if causal:
            mask |= causal_mask(length)[None, None, :, :]
        if key_padding_mask is not None:
            key_padding_mask = np.asarray(key_padding_mask, dtype=bool)
            mask |= key_padding_mask[:, None, None, :]
        # Never mask an entire row: a fully-masked softmax row is NaN.
        # Rows that would be fully masked (padding queries) get unmasked
        # self-attention to their own position; their outputs are
        # ignored downstream because losses mask padding positions.
        fully_masked = mask.all(axis=-1, keepdims=True)
        diagonal = np.eye(length, dtype=bool)[None, None, :, :]
        mask = np.where(fully_masked & diagonal, False, mask)

        scores = scores.masked_fill(mask, _NEG_INF)
        probs = F.softmax(scores, axis=-1)
        raw_probs = probs.data.copy() if return_probs else None
        probs = self.attn_dropout(probs)
        context = probs.matmul(v)  # (B, h, T, dh)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        out = self.out_proj(context)
        if return_probs:
            return out, raw_probs
        return out

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )
