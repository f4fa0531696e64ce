"""Linear, Embedding, LayerNorm, Dropout."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(2)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 7, rng=RNG)
        assert layer(Tensor(np.zeros((3, 4)))).shape == (3, 7)

    def test_batched_3d_input(self):
        layer = Linear(4, 7, rng=RNG)
        assert layer(Tensor(np.zeros((2, 5, 4)))).shape == (2, 5, 7)

    def test_matches_manual_affine(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = RNG.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, rng=RNG)
        assert layer.bias is None
        x = RNG.normal(size=(2, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, x @ layer.weight.data)

    def test_gradients_flow_to_params(self):
        layer = Linear(3, 2, rng=RNG)
        out = layer(Tensor(RNG.normal(size=(4, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert layer.weight.grad.shape == (3, 2)


class TestEmbedding:
    def test_lookup_values(self):
        emb = Embedding(5, 3, rng=RNG)
        idx = np.array([0, 4, 2])
        np.testing.assert_array_equal(emb(idx).data, emb.weight.data[idx])

    def test_nd_indices(self):
        emb = Embedding(9, 4, rng=RNG)
        assert emb(np.zeros((2, 6), dtype=int)).shape == (2, 6, 4)

    def test_out_of_range_raises(self):
        emb = Embedding(5, 3, rng=RNG)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_for_repeats(self):
        emb = Embedding(4, 2, rng=RNG)
        out = emb(np.array([1, 1, 1]))
        out.sum().backward()
        np.testing.assert_array_equal(emb.weight.grad[1], [3.0, 3.0])
        np.testing.assert_array_equal(emb.weight.grad[0], [0.0, 0.0])


class TestLayerNormLayer:
    def test_shape_preserved(self):
        ln = LayerNorm(6)
        assert ln(Tensor(RNG.normal(size=(2, 3, 6)))).shape == (2, 3, 6)

    def test_params_learnable(self):
        ln = LayerNorm(4)
        out = ln(Tensor(RNG.normal(size=(3, 4))))
        out.sum().backward()
        assert ln.weight.grad is not None
        assert ln.bias.grad is not None


class TestDropout:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_zero_rate_identity(self):
        drop = Dropout(0.0)
        x = Tensor(RNG.normal(size=(5, 5)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_training_mode_scales_survivors(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        # Expectation preserved within sampling noise.
        assert 0.95 < out.mean() < 1.05

    def test_eval_mode_identity(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_deterministic_given_rng(self):
        a = Dropout(0.5, rng=np.random.default_rng(7))
        b = Dropout(0.5, rng=np.random.default_rng(7))
        x = Tensor(np.ones((8, 8)))
        np.testing.assert_array_equal(a(x).data, b(x).data)
