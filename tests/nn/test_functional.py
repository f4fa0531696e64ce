"""Composite/fused functional ops: values and gradients."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.conftest import numeric_gradient

RNG = np.random.default_rng(1)


def check_gradient(fn, array, tol=1e-6):
    t = Tensor(array, requires_grad=True)
    out = fn(t)
    seed = RNG.normal(size=out.shape)
    (out * Tensor(seed)).sum().backward()
    numeric = numeric_gradient(lambda x: fn(Tensor(x)).data, array, seed)
    np.testing.assert_allclose(t.grad, numeric, atol=tol, rtol=tol)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = F.softmax(Tensor(RNG.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_shift_invariance(self):
        x = RNG.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_large_values_stable(self):
        out = F.softmax(Tensor([[1e4, 0.0]]))
        assert np.isfinite(out.data).all()

    def test_gradient(self):
        check_gradient(lambda t: F.softmax(t), RNG.normal(size=(3, 6)))


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = RNG.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-12,
        )

    def test_gradient(self):
        check_gradient(lambda t: F.log_softmax(t, axis=-1), RNG.normal(size=(3, 6)))


class TestLayerNorm:
    def test_output_standardized(self):
        x = RNG.normal(size=(5, 8)) * 3 + 2
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = F.layer_norm(Tensor(x), w, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_applied(self):
        x = RNG.normal(size=(2, 4))
        w = Tensor(np.full(4, 2.0))
        b = Tensor(np.full(4, 5.0))
        base = F.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        out = F.layer_norm(Tensor(x), w, b).data
        np.testing.assert_allclose(out, base * 2.0 + 5.0, atol=1e-10)

    def test_gradient_wrt_input(self):
        w = np.ones(6) * 1.3
        b = np.zeros(6) + 0.2
        check_gradient(
            lambda t: F.layer_norm(t, Tensor(w), Tensor(b)),
            RNG.normal(size=(4, 6)),
            tol=1e-5,
        )

    def test_gradient_wrt_weight_and_bias(self):
        x = RNG.normal(size=(3, 5))
        w_arr = RNG.normal(size=5)
        b_arr = RNG.normal(size=5)
        w = Tensor(w_arr, requires_grad=True)
        b = Tensor(b_arr, requires_grad=True)
        out = F.layer_norm(Tensor(x), w, b)
        seed = RNG.normal(size=out.shape)
        (out * Tensor(seed)).sum().backward()
        num_w = numeric_gradient(
            lambda ww: F.layer_norm(Tensor(x), Tensor(ww), Tensor(b_arr)).data,
            w_arr,
            seed,
        )
        num_b = numeric_gradient(
            lambda bb: F.layer_norm(Tensor(x), Tensor(w_arr), Tensor(bb)).data,
            b_arr,
            seed,
        )
        np.testing.assert_allclose(w.grad, num_w, atol=1e-6)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-6)

    def test_3d_input(self):
        x = RNG.normal(size=(2, 3, 4))
        out = F.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert out.shape == (2, 3, 4)


class TestActivations:
    def test_softplus_gradient(self):
        check_gradient(F.softplus, RNG.normal(size=(4, 4)))

    def test_softplus_stable_extremes(self):
        out = F.softplus(Tensor([-1000.0, 1000.0])).data
        np.testing.assert_allclose(out, [0.0, 1000.0], atol=1e-9)

    def test_relu_sigmoid_tanh_passthrough(self):
        x = Tensor(RNG.normal(size=(3,)))
        np.testing.assert_array_equal(F.relu(x).data, np.maximum(x.data, 0))
        np.testing.assert_allclose(F.tanh(x).data, np.tanh(x.data))
        np.testing.assert_allclose(
            F.sigmoid(x).data, 1 / (1 + np.exp(-x.data)), atol=1e-12
        )


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = RNG.normal(size=(4, 6))
        targets = np.array([0, 5, 2, 2])
        loss = F.cross_entropy(Tensor(logits), targets).item()
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        manual = -log_probs[np.arange(4), targets].mean()
        assert abs(loss - manual) < 1e-10

    def test_cross_entropy_gradient(self):
        targets = np.array([1, 0, 3])
        check_gradient(
            lambda t: F.cross_entropy(t, targets), RNG.normal(size=(3, 5))
        )

    def test_cross_entropy_3d_logits(self):
        """(batch, positions, classes) logits with matching targets."""
        logits = RNG.normal(size=(2, 3, 6))
        targets = RNG.integers(0, 6, size=(2, 3))
        loss = F.cross_entropy(Tensor(logits), targets).item()
        flat = F.cross_entropy(
            Tensor(logits.reshape(6, 6)), targets.reshape(6)
        ).item()
        assert loss == pytest.approx(flat)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((4, 5), -20.0)
        targets = np.array([0, 1, 2, 3])
        logits[np.arange(4), targets] = 20.0
        assert F.cross_entropy(Tensor(logits), targets).item() < 1e-9

    def test_bce_with_logits_matches_manual(self):
        logits = RNG.normal(size=8)
        targets = (RNG.random(8) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert abs(loss - manual) < 1e-10

    def test_bce_with_logits_gradient(self):
        targets = (RNG.random(6) > 0.5).astype(float)
        check_gradient(
            lambda t: F.binary_cross_entropy_with_logits(t, targets),
            RNG.normal(size=6),
        )

    def test_bce_stable_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert loss.item() < 1e-9


class TestSimilarity:
    def test_l2_normalize_unit_norm(self):
        x = Tensor(RNG.normal(size=(5, 8)))
        out = F.l2_normalize(x).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), np.ones(5))

    def test_l2_normalize_gradient(self):
        check_gradient(F.l2_normalize, RNG.normal(size=(3, 4)))


class TestDropoutMask:
    def test_mask_scale(self):
        rng = np.random.default_rng(0)
        mask = F.dropout_mask((10000,), 0.5, rng)
        kept = mask > 0
        assert 0.45 < kept.mean() < 0.55
        np.testing.assert_allclose(mask[kept], 2.0)

    def test_rate_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            F.dropout_mask((3,), 1.0, rng)
        with pytest.raises(ValueError):
            F.dropout_mask((3,), -0.1, rng)
