"""Multi-head self-attention: masks, causality, gradients."""

import numpy as np
import pytest

from repro.nn import compute
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.tensor import Tensor


def make_attention(dim=8, heads=2, dropout=0.0, seed=0):
    return MultiHeadSelfAttention(
        dim, heads, dropout=dropout, rng=np.random.default_rng(seed)
    )


class TestCausalMask:
    def test_upper_triangle_masked(self):
        mask = compute.MASKS.causal(4)
        assert mask[0, 1] and mask[0, 3] and mask[2, 3]
        assert not mask[1, 1] and not mask[3, 0]

    def test_shape(self):
        assert compute.MASKS.causal(7).shape == (7, 7)


class TestForward:
    def test_output_shape(self):
        att = make_attention()
        out = att(Tensor(np.random.default_rng(0).normal(size=(3, 5, 8))))
        assert out.shape == (3, 5, 8)

    def test_dim_head_divisibility_checked(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2)

    def test_causality_no_future_leakage(self):
        """Changing a future item must not change earlier outputs."""
        att = make_attention()
        att.eval()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 8))
        base = att(Tensor(x), causal=True).data.copy()
        x2 = x.copy()
        x2[0, 5, :] += 10.0  # perturb only the last step
        out = att(Tensor(x2), causal=True).data
        np.testing.assert_allclose(out[0, :5], base[0, :5], atol=1e-10)
        assert not np.allclose(out[0, 5], base[0, 5])

    def test_non_causal_sees_future(self):
        att = make_attention()
        att.eval()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 8))
        base = att(Tensor(x), causal=False).data.copy()
        x2 = x.copy()
        x2[0, 5, :] += 10.0
        out = att(Tensor(x2), causal=False).data
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_padding_mask_ignored_keys(self):
        """Changing a padded position must not affect real positions."""
        att = make_attention()
        att.eval()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 8))
        padding = np.array([[True, True, False, False, False]])
        base = att(Tensor(x), causal=True, key_padding_mask=padding).data.copy()
        x2 = x.copy()
        x2[0, 0, :] = 123.0  # perturb a padded key
        out = att(Tensor(x2), causal=True, key_padding_mask=padding).data
        np.testing.assert_allclose(out[0, 2:], base[0, 2:], atol=1e-10)

    def test_fully_masked_rows_finite(self):
        """Padding queries (whose whole row is masked) must not be NaN."""
        att = make_attention()
        att.eval()
        x = np.random.default_rng(5).normal(size=(2, 4, 8))
        padding = np.array(
            [[True, True, True, True], [True, False, False, False]]
        )
        out = att(Tensor(x), causal=True, key_padding_mask=padding).data
        assert np.isfinite(out).all()

    def test_gradients_flow(self):
        att = make_attention(dropout=0.1)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 8)), requires_grad=True)
        out = att(x, causal=True)
        out.sum().backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()
        for param in att.parameters():
            assert param.grad is not None

    def test_deterministic_in_eval(self):
        att = make_attention(dropout=0.5)
        att.eval()
        x = Tensor(np.random.default_rng(7).normal(size=(2, 4, 8)))
        np.testing.assert_array_equal(att(x).data, att(x).data)

    def test_single_head_matches_multi_head_shapes(self):
        one = make_attention(dim=8, heads=1)
        four = make_attention(dim=8, heads=4)
        x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 8)))
        assert one(x).shape == four(x).shape == (2, 3, 8)
