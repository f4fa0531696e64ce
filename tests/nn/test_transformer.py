"""Transformer encoder blocks."""

import numpy as np

from repro.nn.tensor import Tensor
from repro.nn.transformer import (
    PositionwiseFeedForward,
    TransformerEncoder,
    TransformerEncoderLayer,
)


def make_encoder(layers=2, dim=8, heads=2, dropout=0.0, seed=0):
    return TransformerEncoder(
        layers, dim, heads, dropout=dropout, rng=np.random.default_rng(seed)
    )


class TestPositionwiseFeedForward:
    def test_shape(self):
        ffn = PositionwiseFeedForward(8, 16, rng=np.random.default_rng(0))
        assert ffn(Tensor(np.zeros((2, 5, 8)))).shape == (2, 5, 8)

    def test_positionwise_independence(self):
        """The FFN at position t must not mix other positions."""
        ffn = PositionwiseFeedForward(4, 8, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 4))
        base = ffn(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 2] += 5.0
        out = ffn(Tensor(x2)).data
        np.testing.assert_allclose(out[0, :2], base[0, :2])


class TestEncoderLayer:
    def test_shape_preserved(self):
        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((3, 5, 8)))).shape == (3, 5, 8)

    def test_causality_through_full_block(self):
        layer = TransformerEncoderLayer(8, 2, rng=np.random.default_rng(1))
        layer.eval()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 5, 8))
        base = layer(Tensor(x), causal=True).data.copy()
        x2 = x.copy()
        x2[0, 4] += 3.0
        out = layer(Tensor(x2), causal=True).data
        np.testing.assert_allclose(out[0, :4], base[0, :4], atol=1e-10)


class TestEncoderStack:
    def test_num_layers(self):
        enc = make_encoder(layers=3)
        assert enc.num_layers == 3
        assert len(enc.layers) == 3

    def test_stacked_causality(self):
        enc = make_encoder(layers=2)
        enc.eval()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 8))
        base = enc(Tensor(x), causal=True).data.copy()
        x2 = x.copy()
        x2[0, 5] += 2.0
        out = enc(Tensor(x2), causal=True).data
        np.testing.assert_allclose(out[0, :5], base[0, :5], atol=1e-9)

    def test_gradients_reach_all_layers(self):
        enc = make_encoder(layers=2, dropout=0.1)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 4, 8)), requires_grad=True)
        enc(x).sum().backward()
        for name, param in enc.named_parameters():
            assert param.grad is not None, f"no grad for {name}"

    def test_padding_mask_passthrough(self):
        enc = make_encoder(layers=2)
        enc.eval()
        x = np.random.default_rng(5).normal(size=(2, 4, 8))
        padding = np.array([[True, False, False, False], [False] * 4])
        out = enc(Tensor(x), causal=True, key_padding_mask=padding).data
        assert np.isfinite(out).all()

    def test_deterministic_eval(self):
        enc = make_encoder(dropout=0.3)
        enc.eval()
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 8)))
        np.testing.assert_array_equal(enc(x).data, enc(x).data)

    def test_parameter_count_scales_with_depth(self):
        one = make_encoder(layers=1)
        two = make_encoder(layers=2)
        def size(encoder):
            return sum(p.size for p in encoder.parameters())

        assert size(two) == 2 * size(one)
