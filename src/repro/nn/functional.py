"""Composite and fused differentiable operations.

Numerically sensitive composites (softmax, log-softmax, layer norm) are
implemented as fused primitives with analytic backward rules; the rest
compose the :class:`repro.nn.tensor.Tensor` primitives.

The encoder's grad path runs on three more fused kernels —
:func:`linear` (matmul + bias in one graph node), :func:`fused_linear_act`
(linear + ReLU, the transformer FFN's inner step), and
:func:`fused_attention` (packed QKV → context, one node with an
analytic backward).  Each forward performs the same floating-point
operations as the ``Tensor`` composition it replaces, so outputs match
the seed's unfused encoder bit for bit; gradients match at tolerance,
because the two linear kernels reduce the weight gradient as one GEMM
(``tests/nn/test_compute.py`` keeps that composition as the oracle).
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.nn.tensor import Tensor, _unbroadcast


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor) -> Tensor:
    """Fused softmax along the last axis with the standard max-shift trick."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=-1, keepdims=True)

    def backward(grad: np.ndarray):
        # d softmax: s * (g - sum(g * s))
        dot = (grad * out).sum(axis=-1, keepdims=True)
        return ((x, out * (grad - dot)),)

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    soft = np.exp(out)

    def backward(grad: np.ndarray):
        return ((x, grad - soft * grad.sum(axis=axis, keepdims=True)),)

    return Tensor._make(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Fused layer normalization over the last axis.

    ``weight`` and ``bias`` have shape ``(d,)`` where ``d`` is the size
    of the last axis of ``x``.
    """
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered
    normalized *= inv_std  # in place: `centered` is not needed again
    out = normalized * weight.data
    out += bias.data
    d = x.data.shape[-1]

    def backward(grad: np.ndarray):
        grad_weight = (grad * normalized).reshape(-1, d).sum(axis=0)
        grad_bias = grad.reshape(-1, d).sum(axis=0)
        grad_norm = grad * weight.data
        # Standard layer-norm backward, with the same operation order as
        # the naive expression ((d*gn - sum(gn)) - n*sum(gn*n)) * (s/d)
        # but accumulated in place on one buffer:
        sum_gn = grad_norm.sum(axis=-1, keepdims=True)
        sum_gn_n = (grad_norm * normalized).sum(axis=-1, keepdims=True)
        grad_x = grad_norm
        grad_x *= d
        grad_x -= sum_gn
        grad_x -= normalized * sum_gn_n
        grad_x *= inv_std / d
        return ((x, grad_x), (weight, grad_weight), (bias, grad_bias))

    return Tensor._make(out, (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused affine map ``x @ weight + bias`` as a single graph node.

    ``x`` is ``(..., d)`` and ``weight`` the 2-D ``(d, o)`` matrix.  The
    forward and ``grad_x`` perform the ``matmul`` + ``add``
    composition's floating-point operations (the bias gradient reduces
    with the same ``_unbroadcast`` sum); the weight gradient is one
    ``(d, N) @ (N, o)`` GEMM over the ``N`` flattened rows of ``x``, not
    a batched product summed over the batch.  One node instead of two,
    and no graph bookkeeping for the intermediate pre-bias array.
    """
    out = np.matmul(x.data, weight.data)
    out += bias.data  # in place: one fewer full-size temporary
    x_data, w_data = x.data, weight.data

    def backward(grad: np.ndarray):
        grad_x = np.matmul(grad, w_data.T)
        grad_w = _weight_grad(x_data, grad)
        grad_b = _unbroadcast(grad, bias.data.shape)
        return ((x, grad_x), (weight, grad_w), (bias, grad_b))

    return Tensor._make(out, (x, weight, bias), backward)


def fused_linear_act(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused ``relu(x @ weight + bias)`` (the FFN inner step, Eq. 11).

    One graph node replaces the matmul, bias add, and ReLU; the
    backward masks the incoming gradient with the ReLU's support before
    routing it through the affine map exactly as :func:`linear` does.
    """
    pre = np.matmul(x.data, weight.data)
    pre += bias.data
    act_mask = pre > 0
    out = pre * act_mask
    x_data, w_data = x.data, weight.data

    def backward(grad: np.ndarray):
        grad_pre = grad * act_mask
        grad_x = np.matmul(grad_pre, w_data.T)
        grad_w = _weight_grad(x_data, grad_pre)
        grad_b = _unbroadcast(grad_pre, bias.data.shape)
        return ((x, grad_x), (weight, grad_w), (bias, grad_b))

    return Tensor._make(out, (x, weight, bias), backward)


def _weight_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``Σ xᵀ @ grad`` over every leading axis, as one ``(d, N) @ (N, o)``
    GEMM on the flattened rows."""
    return x.reshape(-1, x.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])


def fused_attention(
    qkv: Tensor,
    mask: np.ndarray | None,
    num_heads: int,
    scale: float,
    fill: float = -1e9,
    dropout_mask: np.ndarray | None = None,
    last_row: bool = False,
) -> Tensor:
    """Scaled-dot-product attention from a packed QKV, one graph node.

    Takes the packed ``(B, T, 3d)`` projection and produces the merged
    ``(B, T, d)`` context: head split, ``q @ kᵀ`` scaling, mask fill,
    softmax (in place on the scores buffer), optional dropout on the
    probabilities, ``probs @ v``, and the head merge — with a single
    analytic backward that writes the packed QKV gradient directly
    (no per-component zero-filled scatter buffers).

    Every floating-point operation matches the unfused composition
    (head-split views, ``matmul``, scale, ``masked_fill`` + ``softmax``,
    dropout multiply, ``matmul``) value for value — only the allocation
    count and graph size differ.

    ``dropout_mask`` is a pre-scaled inverted-dropout mask for the
    ``(B, h, T, T)`` probabilities (see :func:`dropout_mask`); pass
    ``None`` when dropout is inactive.

    With ``last_row=True`` only the last query row is computed: the
    result is the ``(B, 1, d)`` context of position ``T - 1``, keys and
    values still span every position.  ``mask`` keeps its full shape and
    is cut to that row here; ``dropout_mask`` may be the full mask or
    only that row's ``(B, h, 1, T)``.  The packed Q gradient of the rows
    not queried is zero.
    """
    batch, length, packed = qkv.shape
    dim = packed // 3
    if dim * 3 != packed or dim % num_heads != 0:
        raise ValueError(
            f"packed dim {packed} is not 3 * (num_heads={num_heads} * head_dim)"
        )
    head_dim = dim // num_heads
    scale = float(scale)
    fill = float(fill)
    queries = slice(-1, None) if last_row else slice(None)
    rows = 1 if last_row else length

    parts = qkv.data.reshape(batch, length, 3, num_heads, head_dim)
    # Materialize contiguous head views once: the forward and the four
    # backward batched matmuls all reuse them, and numpy's batched
    # matmul is much slower on strided 4-D operands.  Copying never
    # changes values.
    q = np.ascontiguousarray(parts[:, queries, 0].transpose(0, 2, 1, 3))
    k = np.ascontiguousarray(parts[:, :, 1].transpose(0, 2, 1, 3))
    v = np.ascontiguousarray(parts[:, :, 2].transpose(0, 2, 1, 3))

    scores = np.matmul(q, k.swapaxes(-1, -2))  # (B, h, rows, T)
    scores *= scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)[..., queries, :]
        mask = np.broadcast_to(mask, scores.shape)
        np.copyto(scores, fill, where=mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    probs = scores  # softmax output, retained for the backward

    if dropout_mask is not None:
        dropout_mask = dropout_mask[..., queries, :]
    dropped = probs if dropout_mask is None else probs * dropout_mask
    context = np.matmul(dropped, v)  # (B, h, rows, dh)
    out = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(
        batch, rows, dim
    )

    def backward(grad: np.ndarray):
        # Merge-heads backward: pure view reshuffle, no arithmetic.
        g = grad.reshape(batch, rows, num_heads, head_dim).transpose(0, 2, 1, 3)
        # context = dropped @ v
        grad_dropped = np.matmul(g, v.swapaxes(-1, -2))
        grad_v = np.matmul(dropped.swapaxes(-1, -2), g)
        # dropout multiply
        if dropout_mask is not None:
            grad_probs = grad_dropped
            grad_probs *= dropout_mask
        else:
            grad_probs = grad_dropped
        # softmax (+ mask fill + scale), in place on grad_probs
        dot = (grad_probs * probs).sum(axis=-1, keepdims=True)
        grad_scores = grad_probs
        grad_scores -= dot
        grad_scores *= probs
        if mask is not None:
            np.copyto(grad_scores, 0.0, where=mask)
        grad_scores *= scale
        # scores = q @ kᵀ
        grad_q = np.matmul(grad_scores, k)
        grad_k = np.matmul(q.swapaxes(-1, -2), grad_scores).swapaxes(-1, -2)
        # Head split backward: write each third of the packed gradient
        # in place — no zero-filled scatter buffers to accumulate.
        grad_parts = np.empty_like(parts)
        if last_row:
            grad_parts[:, :-1, 0] = 0.0  # rows that were never queried
        grad_parts[:, queries, 0] = grad_q.transpose(0, 2, 1, 3)
        grad_parts[:, :, 1] = grad_k.transpose(0, 2, 1, 3)
        grad_parts[:, :, 2] = grad_v.transpose(0, 2, 1, 3)
        return ((qkv, grad_parts.reshape(batch, length, packed)),)

    return Tensor._make(out, (qkv,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under ``logits``.

    ``logits`` has shape ``(..., num_classes)``; ``targets`` the same
    shape minus the final axis.
    """
    targets = np.asarray(targets)
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    rows = np.arange(flat.shape[0])
    picked = flat[rows, targets.reshape(-1)]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE between ``logits`` and binary ``targets``.

    Uses the stable formulation ``max(x, 0) - x*t + log(1 + exp(-|x|))``.
    """
    targets_arr = np.asarray(targets, dtype=logits.data.dtype)
    x = logits.data
    out = np.maximum(x, 0.0) - x * targets_arr + np.log1p(np.exp(-np.abs(x)))
    value = np.asarray(out.mean())
    sig = expit(x)
    scale = 1.0 / x.size

    def backward(grad: np.ndarray):
        return ((logits, grad * scale * (sig - targets_arr)),)

    return Tensor._make(value, (logits,), backward)


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``.

    Useful for ranking losses: ``-log σ(x) = softplus(-x)`` and
    ``-log(1 - σ(x)) = softplus(x)``.
    """
    data = x.data
    out = np.maximum(data, 0.0) + np.log1p(np.exp(-np.abs(data)))
    sig = expit(data)

    def backward(grad: np.ndarray):
        return ((x, grad * sig),)

    return Tensor._make(out, (x,), backward)


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale vectors along ``axis`` to unit L2 norm."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + 1e-12).sqrt()
    return x / norm


def dropout_mask(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator, dtype=np.float64
) -> np.ndarray:
    """Sample an inverted-dropout mask (already scaled by 1/keep).

    The draw is always a float64 ``rng.random`` call (so the RNG stream
    is identical across precisions); only the emitted mask is cast to
    ``dtype``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(dtype) / keep
