"""Finite-difference gradient checks for the core nn building blocks.

For each block the harness perturbs every scalar parameter by ±eps,
recomputes a deterministic scalar loss, and compares the central
difference against the analytic gradient produced by ``backward()``.
A failure names the offending parameter and its max abs error, e.g.::

    gradient mismatch: attention.query_proj.weight (max abs err 3.1e-04)

The module checks cast the (float32) modules to float64 with
``Module.to_dtype`` and run with fixed seeds and dropout disabled (the
fused-attention check draws one fixed dropout mask), so they are tight
(atol 1e-6) and bit-reproducible.
"""

import numpy as np
import pytest

from repro.nn import compute, precision
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.nn.transformer import PositionwiseFeedForward, TransformerEncoderLayer

EPS = 1e-6
ATOL = 1e-6


def check_parameter_gradients(module: Module, loss_fn, eps=EPS, atol=ATOL) -> None:
    """Assert analytic parameter gradients match central differences.

    ``loss_fn()`` must rebuild the scalar loss from the module's
    *current* parameter values and be deterministic (no dropout, fixed
    inputs).  On mismatch the assertion message lists every offending
    parameter with its max abs error.
    """
    module.zero_grad()
    loss_fn().backward()
    analytic = {
        name: (param.grad.copy() if param.grad is not None else np.zeros_like(param.data))
        for name, param in module.named_parameters()
    }

    failures = []
    for name, param in module.named_parameters():
        numeric = np.zeros_like(param.data)
        it = np.nditer(param.data, flags=["multi_index"])
        for __ in it:
            idx = it.multi_index
            original = param.data[idx]
            param.data[idx] = original + eps
            plus = loss_fn().item()
            param.data[idx] = original - eps
            minus = loss_fn().item()
            param.data[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
        error = float(np.max(np.abs(numeric - analytic[name])))
        if error > atol:
            failures.append((name, error))

    assert not failures, "gradient mismatch: " + ", ".join(
        f"{name} (max abs err {error:.3e})" for name, error in failures
    )


def scalarize(out: Tensor, seed: int = 0) -> Tensor:
    """Reduce any output tensor to a fixed random weighted sum."""
    weights = np.random.default_rng(seed).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


class TestGradcheck:
    def test_attention(self):
        rng = np.random.default_rng(7)
        module = MultiHeadSelfAttention(dim=6, num_heads=2, dropout=0.0, rng=rng)
        module.eval().to_dtype(np.float64)
        x = np.random.default_rng(8).normal(size=(2, 4, 6))
        padding = np.zeros((2, 4), dtype=bool)
        padding[1, 0] = True  # exercise the key-padding mask path

        def loss_fn():
            out = module(Tensor(x), causal=True, key_padding_mask=padding)
            return scalarize(out, seed=9)

        check_parameter_gradients(module, loss_fn)

    def test_layernorm(self):
        module = LayerNorm(5).to_dtype(np.float64)
        x = np.random.default_rng(10).normal(size=(3, 5))

        def loss_fn():
            return scalarize(module(Tensor(x)), seed=11)

        check_parameter_gradients(module, loss_fn)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(12)
        module = Linear(4, 6, rng=rng).to_dtype(np.float64)
        x = np.random.default_rng(13).normal(size=(5, 4))
        targets = np.array([0, 2, 5, 1, 3])

        def loss_fn():
            return F.cross_entropy(module(Tensor(x)), targets)

        check_parameter_gradients(module, loss_fn)

    def test_transformer_block(self):
        rng = np.random.default_rng(14)
        module = TransformerEncoderLayer(
            dim=6, num_heads=2, hidden_dim=8, dropout=0.0, rng=rng
        )
        module.eval().to_dtype(np.float64)
        x = np.random.default_rng(15).normal(size=(2, 3, 6))

        def loss_fn():
            out = module(Tensor(x), causal=True)
            return scalarize(out, seed=16)

        check_parameter_gradients(module, loss_fn)

    def test_fused_ffn(self):
        """The fused linear+ReLU kernel used by the FFN."""
        module = PositionwiseFeedForward(
            dim=5, hidden_dim=7, rng=np.random.default_rng(19)
        ).to_dtype(np.float64)
        x = np.random.default_rng(20).normal(size=(2, 3, 5))

        def loss_fn():
            return scalarize(module(Tensor(x)), seed=21)

        check_parameter_gradients(module, loss_fn)

    def test_failure_names_offending_parameter(self):
        """The harness's own error reporting: a corrupted gradient is
        attributed to the right parameter name with its max abs error."""
        module = LayerNorm(4).to_dtype(np.float64)
        x = np.random.default_rng(17).normal(size=(2, 4))

        def loss_fn():
            return scalarize(module(Tensor(x)), seed=18)

        real_backward = Tensor.backward

        def corrupted_backward(self, *args, **kwargs):
            real_backward(self, *args, **kwargs)
            module.weight.grad = module.weight.grad + 1.0  # sabotage

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Tensor, "backward", corrupted_backward)
            with pytest.raises(AssertionError) as excinfo:
                check_parameter_gradients(module, loss_fn)
        assert "weight" in str(excinfo.value)
        assert "max abs err" in str(excinfo.value)


# ----------------------------------------------------------------------
# Fused compute-core primitives, checked in float64 AND float32.
#
# Float32 central differences are dominated by rounding (eps_f32 ≈
# 1.2e-7), so the step is widened to 1e-3 and the tolerance comes from
# precision.grad_atol — loose in absolute terms but more than tight
# enough to catch a wrong analytic backward.
# ----------------------------------------------------------------------
DTYPE_CASES = [
    pytest.param(np.float64, EPS, id="float64"),
    pytest.param(np.float32, 1e-3, id="float32"),
]


class _PrimitiveHarness(Module):
    """Wraps raw tensors in Parameters so the module harness sees them,
    cast to ``dtype`` (Parameters are constructed in float32)."""

    def __init__(self, arrays: dict[str, np.ndarray], dtype) -> None:
        super().__init__()
        for name, value in arrays.items():
            setattr(self, name, Parameter(value))
        self.to_dtype(dtype)


class TestFusedPrimitiveGradcheck:
    @pytest.mark.parametrize("dtype, eps", DTYPE_CASES)
    def test_linear(self, dtype, eps):
        rng = np.random.default_rng(30)
        module = _PrimitiveHarness(
            {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 5)),
             "b": rng.normal(size=(5,))},
            dtype,
        )

        def loss_fn():
            return scalarize(F.linear(module.x, module.w, module.b), seed=31)

        check_parameter_gradients(
            module, loss_fn, eps=eps, atol=precision.grad_atol(dtype)
        )

    @pytest.mark.parametrize("dtype, eps", DTYPE_CASES)
    def test_fused_linear_act(self, dtype, eps):
        rng = np.random.default_rng(32)
        module = _PrimitiveHarness(
            {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 6)),
             "b": rng.normal(size=(6,))},
            dtype,
        )

        def loss_fn():
            out = F.fused_linear_act(module.x, module.w, module.b)
            return scalarize(out, seed=33)

        check_parameter_gradients(
            module, loss_fn, eps=eps, atol=precision.grad_atol(dtype)
        )

    @pytest.mark.parametrize("dtype, eps", DTYPE_CASES)
    @pytest.mark.parametrize("with_dropout", [False, True], ids=["mask", "dropout"])
    def test_fused_attention(self, dtype, eps, with_dropout):
        """The attention node straight from a packed QKV, under a causal
        + padding mask (one fully padded row) and, in the dropout arm, a
        fixed pre-scaled dropout mask on the probabilities."""
        rng = np.random.default_rng(36)
        module = _PrimitiveHarness({"qkv": rng.normal(size=(3, 4, 12))}, dtype)
        padding = np.zeros((3, 4), dtype=bool)
        padding[1, :2] = True
        padding[2, :] = True
        mask = compute.MaskCache().combined(True, padding, 4)
        drop = None
        if with_dropout:
            drop = F.dropout_mask((3, 2, 4, 4), 0.3, np.random.default_rng(37), dtype)

        def loss_fn():
            out = F.fused_attention(
                module.qkv, mask, 2, 1.0 / np.sqrt(2.0), dropout_mask=drop
            )
            return scalarize(out, seed=38)

        check_parameter_gradients(
            module, loss_fn, eps=eps, atol=precision.grad_atol(dtype)
        )

    @pytest.mark.parametrize("dtype, eps", DTYPE_CASES)
    @pytest.mark.parametrize("with_dropout", [False, True], ids=["mask", "dropout"])
    def test_fused_attention_last_row(self, dtype, eps, with_dropout):
        """The one-query case: full-shape mask and dropout mask in, the
        last row out.  The Q gradient of the rows never queried must be
        exactly zero; the finite differences check the rest."""
        rng = np.random.default_rng(39)
        module = _PrimitiveHarness({"qkv": rng.normal(size=(3, 4, 12))}, dtype)
        padding = np.zeros((3, 4), dtype=bool)
        padding[1, :2] = True
        padding[2, :] = True
        mask = compute.MaskCache().combined(True, padding, 4)
        drop = None
        if with_dropout:
            drop = F.dropout_mask((3, 2, 4, 4), 0.3, np.random.default_rng(40), dtype)

        def loss_fn():
            out = F.fused_attention(
                module.qkv,
                mask,
                2,
                1.0 / np.sqrt(2.0),
                dropout_mask=drop,
                last_row=True,
            )
            assert out.shape == (3, 1, 4)
            return scalarize(out, seed=41)

        check_parameter_gradients(
            module, loss_fn, eps=eps, atol=precision.grad_atol(dtype)
        )
        module.zero_grad()
        loss_fn().backward()
        assert not module.qkv.grad[:, :-1, :4].any()
