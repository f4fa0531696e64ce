"""The compute core's one precision (repro.nn.precision).

Covers spec resolution, the float32 constant (parameters are built in
it, non-float data becomes it), how Tensor creation applies it (float
arrays keep their dtype), NEP 50 scalar hygiene (python and numpy
scalars never upcast float32 operands), Module.to_dtype as the one way
to float64, and the optimizer-state dtype contract.
"""

import numpy as np
import pytest

from repro.models.losses import masked_next_item_bce
from repro.nn import precision
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoderLayer


class TestResolveDtype:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("float32", np.float32),
            ("fp32", np.float32),
            ("single", np.float32),
            ("float64", np.float64),
            ("fp64", np.float64),
            ("double", np.float64),
            (np.float32, np.float32),
            (np.dtype(np.float64), np.float64),
        ],
    )
    def test_aliases(self, spec, expected):
        assert precision.resolve_dtype(spec) == np.dtype(expected)

    def test_none_returns_current_default(self):
        assert precision.resolve_dtype(None) == precision.default_dtype()

    @pytest.mark.parametrize("bad", ["float16", "int64", "bfloat16", 42, np.int32])
    def test_unsupported_specs_raise(self, bad):
        with pytest.raises(ValueError):
            precision.resolve_dtype(bad)

    def test_grad_atol_by_dtype(self):
        assert precision.grad_atol(np.float64) == 1e-6
        assert precision.grad_atol(np.float32) > precision.grad_atol(np.float64)


class TestOnePrecision:
    def test_default_is_float32(self):
        assert precision.default_dtype() == np.dtype(np.float32)
        assert precision.DEFAULT_DTYPE == np.dtype(np.float32)

    def test_non_float_data_becomes_float32(self):
        assert Tensor([1, 2]).data.dtype == np.float32
        assert Tensor(True).data.dtype == np.float32

    def test_parameters_are_the_float64_draw_rounded_once(self):
        draw = np.random.default_rng(0).normal(size=(3, 4))
        param = Parameter(draw)
        assert param.data.dtype == np.float32
        np.testing.assert_array_equal(param.data, draw.astype(np.float32))


class TestTensorDtypePolicy:
    def test_float32_arrays_are_preserved(self):
        data = np.ones((2, 3), dtype=np.float32)
        assert Tensor(data).data.dtype == np.float32

    def test_float64_arrays_are_preserved_under_float32_default(self):
        data = np.ones((2, 3), dtype=np.float64)
        assert Tensor(data).data.dtype == np.float64

    def test_int_input_adopts_default(self):
        assert Tensor(np.arange(4)).data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_arithmetic_keeps_dtype(self, dtype):
        x = Tensor(np.ones((2, 2), dtype=dtype))
        for out in (x * 0.5, x + 1.0, 1.0 - x, x / 2.0, 2.0 / x, x * np.float64(0.5)):
            assert out.data.dtype == dtype, "scalar op upcast the tensor"

    def test_backward_grads_match_param_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        ((x * 3.0).sum()).backward()
        assert x.grad.dtype == np.float32

    def test_loss_mask_adopts_logits_dtype(self):
        pos = Tensor(np.zeros((2, 3), dtype=np.float32))
        neg = Tensor(np.zeros((2, 3), dtype=np.float32))
        loss = masked_next_item_bce(pos, neg, np.ones((2, 3)))
        assert loss.data.dtype == np.float32


class TestModuleToDtype:
    def make_module(self):
        return TransformerEncoderLayer(
            dim=8, num_heads=2, hidden_dim=16, rng=np.random.default_rng(0)
        )

    def test_casts_all_parameters(self):
        module = self.make_module()
        assert {p.data.dtype for p in module.parameters()} == {np.dtype(np.float32)}
        module.to_dtype("float64")
        assert {p.data.dtype for p in module.parameters()} == {np.dtype(np.float64)}

    def test_round_trip_is_lossless_from_float64(self):
        module = self.make_module().to_dtype("float64")
        before = {n: p.data.copy() for n, p in module.named_parameters()}
        module.to_dtype("float32")
        module.to_dtype("float64")
        for name, param in module.named_parameters():
            # The parameters were built in float32, so the float64 copy
            # holds float32-representable values: the round trip is exact.
            np.testing.assert_array_equal(param.data, before[name])

    def test_forward_output_matches_dtype(self):
        module = self.make_module().to_dtype("float32")
        module.eval()
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8)).astype(np.float32))
        assert module(x).data.dtype == np.float32

    def test_param_dtype_reports(self):
        module = self.make_module()
        assert module.param_dtype() == np.dtype(np.float32)
        module.to_dtype("float64")
        assert module.param_dtype() == np.dtype(np.float64)


class TestOptimizerDtype:
    @pytest.mark.parametrize("make", [lambda p: Adam(p), lambda p: SGD(p, 0.1)])
    def test_state_and_updates_stay_float32(self, make):
        layer = Linear(4, 4, rng=np.random.default_rng(0))
        optimizer = make(list(layer.parameters()))
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32))
        for __ in range(3):
            optimizer.zero_grad()
            (layer(x) * layer(x)).sum().backward()
            optimizer.step()
        assert {p.data.dtype for p in layer.parameters()} == {np.dtype(np.float32)}
        for buffers in optimizer._state_buffers().values():
            if np.issubdtype(np.asarray(buffers).dtype, np.floating):
                assert np.asarray(buffers).dtype == np.float32
