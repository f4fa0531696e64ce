"""Popularity-weighted negative sampling."""

import numpy as np
import pytest

from repro.data.loaders import NegativeSampler, PopularityNegativeSampler


def make_counts(num_items=20):
    """Item 1 is 50× more popular than the tail."""
    counts = np.ones(num_items + 1)
    counts[0] = 0
    counts[1] = 500
    counts[2] = 100
    return counts


class TestPopularitySampler:
    def test_avoids_positives(self):
        sampler = PopularityNegativeSampler(
            make_counts(), np.random.default_rng(0)
        )
        positives = np.full(500, 1)
        negatives = sampler.sample(positives)
        assert not (negatives == 1).any()

    def test_range(self):
        sampler = PopularityNegativeSampler(
            make_counts(), np.random.default_rng(1)
        )
        negatives = sampler.sample(np.full(1000, 5))
        assert negatives.min() >= 1
        assert negatives.max() <= 20

    def test_popular_items_oversampled(self):
        sampler = PopularityNegativeSampler(
            make_counts(), np.random.default_rng(2), alpha=1.0
        )
        negatives = sampler.sample(np.full(20000, 20))
        share_item1 = (negatives == 1).mean()
        share_item19 = (negatives == 19).mean()
        assert share_item1 > 10 * share_item19

    def test_alpha_zero_is_uniform(self):
        sampler = PopularityNegativeSampler(
            make_counts(), np.random.default_rng(3), alpha=0.0
        )
        negatives = sampler.sample(np.full(40000, 20))
        counts = np.bincount(negatives, minlength=21)[1:20]
        # Every item in 1..19 gets roughly 1/20 of the draws.
        share = counts / len(negatives)
        assert share.max() < 0.08 and share.min() > 0.03

    def test_alpha_tempering(self):
        """Smaller alpha flattens the distribution."""
        rng = np.random.default_rng
        hot = PopularityNegativeSampler(make_counts(), rng(4), alpha=1.0)
        cool = PopularityNegativeSampler(make_counts(), rng(4), alpha=0.25)
        hot_share = (hot.sample(np.full(20000, 20)) == 1).mean()
        cool_share = (cool.sample(np.full(20000, 20)) == 1).mean()
        assert hot_share > cool_share

    def test_from_sequences(self):
        sequences = [np.array([1, 1, 1, 2]), np.array([1, 3])]
        sampler = PopularityNegativeSampler.from_sequences(
            sequences, num_items=5, rng=np.random.default_rng(5), alpha=1.0
        )
        negatives = sampler.sample(np.full(20000, 5))
        assert (negatives == 1).mean() > (negatives == 4).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            PopularityNegativeSampler(np.ones(2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            PopularityNegativeSampler(
                make_counts(), np.random.default_rng(0), alpha=-1.0
            )

    def test_is_a_negative_sampler(self):
        sampler = PopularityNegativeSampler(
            make_counts(), np.random.default_rng(0)
        )
        assert isinstance(sampler, NegativeSampler)

    def test_smoothing_keeps_unseen_items_sampleable(self):
        counts = np.zeros(11)
        counts[1] = 1000  # only item 1 ever interacted
        sampler = PopularityNegativeSampler(
            counts, np.random.default_rng(6), alpha=1.0
        )
        negatives = sampler.sample(np.full(5000, 1))
        # All negatives avoid item 1, so smoothing must make 2..10 reachable.
        assert set(np.unique(negatives)) <= set(range(2, 11))
        assert len(np.unique(negatives)) >= 5
