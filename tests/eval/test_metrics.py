"""Ranking metrics: HR@k, NDCG@k, MRR, rank computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import hit_ratio, mrr, ndcg, rank_of_target, ranking_metrics


class TestRankOfTarget:
    def test_best_item_rank_one(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        assert rank_of_target(scores, np.array([1]))[0] == 1

    def test_worst_item_rank_last(self):
        scores = np.array([[0.9, 0.1, 0.5]])
        assert rank_of_target(scores, np.array([1]))[0] == 3

    def test_ties_counted_pessimistically(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        assert rank_of_target(scores, np.array([1]))[0] == 3

    def test_nan_never_ranks_above_anything(self):
        nan = np.nan
        scores = np.array([[0.1, nan, 0.5], [nan, 0.9, 0.2], [nan, nan, nan]])
        ranks = rank_of_target(scores, np.array([2, 0, 1]))
        # A NaN competitor counts as tied-or-above; a NaN target is last.
        np.testing.assert_array_equal(ranks, [2, 3, 3])

    def test_batch(self):
        scores = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        ranks = rank_of_target(scores, np.array([0, 0]))
        np.testing.assert_array_equal(ranks, [1, 3])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 1000))
    def test_property_rank_in_valid_range(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(5, n))
        targets = rng.integers(0, n, size=5)
        ranks = rank_of_target(scores, targets)
        assert (ranks >= 1).all() and (ranks <= n).all()


class TestHitRatio:
    def test_all_hits(self):
        assert hit_ratio(np.array([1, 2, 3]), k=5) == 1.0

    def test_no_hits(self):
        assert hit_ratio(np.array([6, 7]), k=5) == 0.0

    def test_boundary_inclusive(self):
        assert hit_ratio(np.array([5]), k=5) == 1.0

    def test_empty(self):
        assert hit_ratio(np.array([]), k=5) == 0.0

    def test_fraction(self):
        assert hit_ratio(np.array([1, 10]), k=5) == 0.5


class TestNDCG:
    def test_rank_one_is_one(self):
        assert ndcg(np.array([1]), k=5) == 1.0

    def test_rank_two_value(self):
        assert ndcg(np.array([2]), k=5) == pytest.approx(1 / np.log2(3))

    def test_outside_k_zero(self):
        assert ndcg(np.array([6]), k=5) == 0.0

    def test_monotone_in_rank(self):
        values = [ndcg(np.array([r]), k=20) for r in range(1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty(self):
        assert ndcg(np.array([]), k=5) == 0.0

    def test_ndcg_never_exceeds_hr(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 50, size=200)
        for k in (5, 10, 20):
            assert ndcg(ranks, k) <= hit_ratio(ranks, k) + 1e-12


class TestMRR:
    def test_value(self):
        assert mrr(np.array([1, 2, 4])) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_empty(self):
        assert mrr(np.array([])) == 0.0


class TestRankingMetrics:
    def test_keys(self):
        out = ranking_metrics(np.array([1, 3, 12]))
        assert set(out) == {
            "HR@5",
            "NDCG@5",
            "HR@10",
            "NDCG@10",
            "HR@20",
            "NDCG@20",
            "MRR",
        }

    def test_custom_ks(self):
        out = ranking_metrics(np.array([1]), ks=(1, 3))
        assert set(out) == {"HR@1", "NDCG@1", "HR@3", "NDCG@3", "MRR"}

    def test_hr_monotone_in_k(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 40, size=300)
        out = ranking_metrics(ranks)
        assert out["HR@5"] <= out["HR@10"] <= out["HR@20"]
        assert out["NDCG@5"] <= out["NDCG@10"] <= out["NDCG@20"]
