"""PairSampler and the operator factory."""

import numpy as np
import pytest

from repro.augment import Crop, Identity, Mask, PairSampler, Reorder
from repro.augment.factory import make_operator, make_operator_set


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestPairSampler:
    def test_returns_two_views(self):
        sampler = PairSampler([Crop(0.5)])
        a, b = sampler(np.arange(1, 21), make_rng(0))
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)

    def test_single_operator_both_views_use_it(self):
        sampler = PairSampler([Mask(0.5, mask_token=77)])
        a, b = sampler(np.arange(1, 11), make_rng(1))
        assert (a == 77).sum() == 5
        assert (b == 77).sum() == 5

    def test_views_use_independent_randomness(self):
        sampler = PairSampler([Mask(0.5, mask_token=77)])
        a, b = sampler(np.arange(1, 41), make_rng(2))
        assert not np.array_equal(a, b)

    def test_distinct_forces_different_operators(self):
        """With distinct=True, a mask view and a crop view can never both
        be crops (lengths prove which operator ran)."""
        sampler = PairSampler(
            [Crop(0.5), Mask(0.5, mask_token=999)], distinct=True
        )
        rng = make_rng(3)
        for __ in range(50):
            a, b = sampler(np.arange(1, 21), rng)
            a_is_crop = len(a) == 10 and 999 not in a
            b_is_crop = len(b) == 10 and 999 not in b
            assert a_is_crop != b_is_crop  # exactly one crop per pair

    def test_distinct_with_single_operator_downgrades(self):
        sampler = PairSampler([Crop(0.5)], distinct=True)
        assert not sampler.distinct

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PairSampler([])

    def test_deterministic(self):
        ops = [Crop(0.5), Reorder(0.5)]
        a1, b1 = PairSampler(ops)(np.arange(1, 21), make_rng(9))
        a2, b2 = PairSampler(ops)(np.arange(1, 21), make_rng(9))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)


class TestFactory:
    def test_make_each_operator(self):
        assert isinstance(make_operator("crop", 0.5), Crop)
        assert isinstance(make_operator("mask", 0.5, mask_token=9), Mask)
        assert isinstance(make_operator("reorder", 0.5), Reorder)
        assert isinstance(make_operator("identity", 0.0), Identity)

    def test_case_insensitive(self):
        assert isinstance(make_operator("CROP", 0.5), Crop)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_operator("flip", 0.5)

    def test_mask_token_threaded(self):
        op = make_operator("mask", 0.5, mask_token=123)
        assert op.mask_token == 123

    def test_set_with_shared_rate(self):
        ops = make_operator_set(("crop", "reorder"), 0.3)
        assert ops[0].eta == 0.3
        assert ops[1].beta == 0.3

    def test_set_with_per_name_rates(self):
        ops = make_operator_set(("crop", "mask"), [0.2, 0.8], mask_token=9)
        assert ops[0].eta == 0.2
        assert ops[1].gamma == 0.8

    def test_rate_count_mismatch(self):
        with pytest.raises(ValueError):
            make_operator_set(("crop", "mask"), [0.5])
