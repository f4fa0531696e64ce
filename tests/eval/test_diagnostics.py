"""Beyond-accuracy list diagnostics."""

import numpy as np
import pytest

from repro.eval.diagnostics import (
    catalog_coverage,
    exposure_gini,
    popularity_bias,
    recommendation_diagnostics,
    top_k_lists,
)
from repro.models.pop import Pop


class TestTopKLists:
    def test_shape_and_range(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:10]
        lists = top_k_lists(pop, tiny_dataset, users, k=5)
        assert lists.shape == (10, 5)
        assert lists.min() >= 1
        assert lists.max() <= tiny_dataset.num_items

    def test_seen_items_excluded(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:10]
        lists = top_k_lists(pop, tiny_dataset, users, k=5)
        for row, user in enumerate(users):
            seen = set(tiny_dataset.seen_items(int(user)).tolist())
            assert not (set(lists[row].tolist()) & seen)

    def test_batched_consistency(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:20]
        together = top_k_lists(pop, tiny_dataset, users, k=5)
        apart = np.concatenate(
            [top_k_lists(pop, tiny_dataset, users[i : i + 3], k=5) for i in range(0, 20, 3)]
        )
        np.testing.assert_array_equal(together, apart)

    @pytest.mark.parametrize("extra", [0, 5])
    def test_short_lists_hold_only_recommendable_items(self, tiny_dataset, extra):
        """k at or past the catalogue: unseen items only, then 0 padding —
        the ids ``Recommender.recommend`` returns."""
        pop = Pop().fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:10]
        k = tiny_dataset.num_items + extra
        lists = top_k_lists(pop, tiny_dataset, users, k=k)
        assert lists.shape == (10, k)
        for row, user in enumerate(users):
            expected = pop.recommend(tiny_dataset, int(user), k=k)
            assert np.array_equal(lists[row, : len(expected)], expected)
            assert (lists[row, len(expected) :] == 0).all()


class TestCoverage:
    def test_full_coverage(self):
        lists = np.array([[1, 2], [3, 4]])
        assert catalog_coverage(lists, num_items=4) == 1.0

    def test_partial_coverage(self):
        lists = np.array([[1, 1], [1, 1]])
        assert catalog_coverage(lists, num_items=10) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            catalog_coverage(np.array([[1]]), num_items=0)

    def test_pop_has_minimal_coverage(self, tiny_dataset):
        """A non-personalized model recommends nearly the same list to
        everyone ⇒ coverage barely above k/num_items."""
        pop = Pop().fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")
        lists = top_k_lists(pop, tiny_dataset, users, k=10)
        coverage = catalog_coverage(lists, tiny_dataset.num_items)
        assert coverage < 0.6  # well below full catalogue


class TestPopularityBias:
    def test_pop_model_is_biased(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:30]
        lists = top_k_lists(pop, tiny_dataset, users, k=10)
        assert popularity_bias(lists, tiny_dataset) > 1.5

    def test_padding_slots_ignored(self, tiny_dataset):
        lists = np.array([[5, 0, 0], [7, 9, 0]])
        assert popularity_bias(lists, tiny_dataset) == pytest.approx(
            popularity_bias(np.array([5, 7, 9]), tiny_dataset)
        )
        assert popularity_bias(np.zeros((2, 3), dtype=int), tiny_dataset) == 0.0

    def test_uniform_lists_near_one(self, tiny_dataset):
        rng = np.random.default_rng(0)
        lists = rng.integers(1, tiny_dataset.num_items + 1, size=(200, 10))
        bias = popularity_bias(lists, tiny_dataset)
        assert 0.7 < bias < 1.4


class TestGini:
    def test_even_exposure_zero(self):
        lists = np.array([[1, 2], [3, 4], [5, 6], [7, 8]])
        assert exposure_gini(lists, num_items=8) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_exposure_high(self):
        lists = np.full((50, 5), 3)
        assert exposure_gini(lists, num_items=100) > 0.9

    def test_empty_exposure(self):
        assert exposure_gini(np.zeros((2, 2), dtype=int), num_items=5) == 0.0


class TestDiagnosticsBundle:
    def test_keys_and_ranges(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        out = recommendation_diagnostics(pop, tiny_dataset, k=10, max_users=50)
        assert set(out) == {"coverage@10", "popularity_bias@10", "gini@10"}
        assert 0.0 < out["coverage@10"] <= 1.0
        assert out["popularity_bias@10"] > 0
        assert 0.0 <= out["gini@10"] <= 1.0
