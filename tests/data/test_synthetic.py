"""Latent-interest log generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import SyntheticConfig, generate_log


def small_config(**overrides):
    base = dict(
        num_users=120,
        num_items=60,
        num_interests=6,
        mean_length=8.0,
        seed=0,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        SyntheticConfig()

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_users=0)
        with pytest.raises(ValueError):
            SyntheticConfig(num_items=0)

    def test_need_multiple_interests(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_interests=1)

    def test_items_vs_interests(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_items=3, num_interests=5)

    def test_persistence_range(self):
        with pytest.raises(ValueError):
            SyntheticConfig(interest_persistence=1.0)

    def test_mean_length_vs_min(self):
        with pytest.raises(ValueError):
            SyntheticConfig(mean_length=2.0, min_length=3)


class TestGeneration:
    def test_deterministic(self):
        a = generate_log(small_config())
        b = generate_log(small_config())
        np.testing.assert_array_equal(a.user_ids, b.user_ids)
        np.testing.assert_array_equal(a.item_ids, b.item_ids)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_different_seeds_differ(self):
        a = generate_log(small_config(seed=0))
        b = generate_log(small_config(seed=1))
        assert not np.array_equal(a.item_ids[: len(b.item_ids)], b.item_ids[: len(a.item_ids)]) or len(a) != len(b)

    def test_all_users_present(self):
        log = generate_log(small_config())
        assert log.num_users == 120

    def test_item_ids_in_range(self):
        log = generate_log(small_config())
        assert log.item_ids.min() >= 0
        assert log.item_ids.max() < 60

    def test_min_length_respected(self):
        config = small_config(min_length=4)
        log = generate_log(config)
        counts = np.bincount(log.user_ids)
        assert counts.min() >= 4

    def test_mean_length_approximate(self):
        config = small_config(num_users=3000, mean_length=9.0)
        log = generate_log(config)
        assert abs(log.avg_sequence_length - 9.0) < 0.7

    def test_timestamps_increasing_per_user(self):
        log = generate_log(small_config())
        for user in range(20):
            times = log.timestamps[log.user_ids == user]
            assert (np.diff(times) > 0).all()

    def test_popularity_skew(self):
        """Zipf within clusters ⇒ top items get far more than average."""
        config = small_config(num_users=2000, popularity_exponent=1.2)
        log = generate_log(config)
        counts = np.bincount(log.item_ids, minlength=60)
        top = np.sort(counts)[-6:].sum()
        assert top > 2.5 * (len(log) / 60) * 6 / 2

    def test_sequential_structure_exists(self):
        """With high persistence, consecutive items share a cluster far
        more often than chance."""
        config = small_config(num_users=1000, interest_persistence=0.9)
        log = generate_log(config)
        cluster = log.item_ids % config.num_interests  # round-robin assignment
        same = 0
        total = 0
        for user in range(200):
            items = cluster[log.user_ids == user]
            same += (items[:-1] == items[1:]).sum()
            total += len(items) - 1
        assert same / total > 0.5  # chance level would be 1/6

    def test_low_persistence_less_structure(self):
        high = small_config(num_users=800, interest_persistence=0.9, seed=3)
        low = small_config(num_users=800, interest_persistence=0.3, seed=3)

        def stay_rate(config):
            log = generate_log(config)
            cluster = log.item_ids % config.num_interests
            same = total = 0
            for user in range(200):
                items = cluster[log.user_ids == user]
                same += (items[:-1] == items[1:]).sum()
                total += len(items) - 1
            return same / total

        assert stay_rate(high) > stay_rate(low) + 0.15


@settings(max_examples=10, deadline=None)
@given(
    users=st.integers(30, 150),
    items=st.integers(20, 80),
    seed=st.integers(0, 1000),
)
def test_property_generation_always_valid(users, items, seed):
    config = SyntheticConfig(
        num_users=users, num_items=items, num_interests=5, mean_length=7.0, seed=seed
    )
    log = generate_log(config)
    assert len(log) >= users * config.min_length
    assert log.user_ids.max() < users
    assert log.item_ids.max() < items
    assert np.isfinite(log.timestamps).all()
