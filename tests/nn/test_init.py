"""Weight initializers."""

import numpy as np
import pytest

from repro.nn import init


class TestTruncatedNormal:
    def test_within_bounds(self):
        rng = np.random.default_rng(0)
        values = init.truncated_normal((10000,), rng, low=-0.01, high=0.01)
        assert values.min() >= -0.01
        assert values.max() <= 0.01

    def test_deterministic(self):
        a = init.truncated_normal((100,), np.random.default_rng(5))
        b = init.truncated_normal((100,), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_roughly_centered(self):
        rng = np.random.default_rng(1)
        values = init.truncated_normal((50000,), rng)
        assert abs(values.mean()) < 1e-3

    def test_custom_bounds(self):
        rng = np.random.default_rng(2)
        values = init.truncated_normal((1000,), rng, mean=1.0, std=0.5, low=0.0, high=2.0)
        assert values.min() >= 0.0 and values.max() <= 2.0

    def test_shape(self):
        rng = np.random.default_rng(3)
        assert init.truncated_normal((3, 4), rng).shape == (3, 4)


class TestXavierHe:
    def test_xavier_uniform_limit(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((100, 200), rng)
        limit = np.sqrt(6.0 / 300)
        assert np.abs(w).max() <= limit

    def test_1d_fans(self):
        rng = np.random.default_rng(3)
        assert init.xavier_uniform((10,), rng).shape == (10,)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), np.random.default_rng(0))


class TestConstants:
    def test_zeros_ones(self):
        np.testing.assert_array_equal(init.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(init.ones((3,)), np.ones(3))
