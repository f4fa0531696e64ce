"""Weight initializers."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.nn import init


class TestTruncatedNormal:
    def test_within_bounds(self):
        rng = np.random.default_rng(0)
        values = init.truncated_normal((10000,), rng)
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

    def test_shape(self):
        rng = np.random.default_rng(3)
        assert init.truncated_normal((3, 4), rng).shape == (3, 4)

    def test_equals_scipy_truncnorm_in_float32(self):
        # The oracle is the distribution object the closed form replaced.
        from scipy.stats import truncnorm

        u = np.random.default_rng(11).random(1_200_000)
        ours = init.truncated_normal(u.shape, np.random.default_rng(11))
        theirs = truncnorm.ppf(u, -0.5, 0.5, loc=0.0, scale=0.02)
        np.testing.assert_array_equal(
            ours.astype(np.float32), theirs.astype(np.float32)
        )
        assert np.abs(ours - theirs).max() < 1e-15


def test_importing_the_package_does_not_load_scipy_stats():
    code = (
        "import sys, repro, repro.cli; "
        "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["False", "True"]


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
