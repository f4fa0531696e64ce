"""The shared argpartition-based top-k helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.topk import top_k_indices


class TestTopKIndices:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=100)
        expected = np.argsort(-scores, kind="stable")[:10]
        assert np.array_equal(top_k_indices(scores, 10), expected)

    def test_batched_matches_full_sort(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(7, 50))
        expected = np.argsort(-scores, axis=-1, kind="stable")[:, :5]
        assert np.array_equal(top_k_indices(scores, 5), expected)

    def test_k_clamped_to_n(self):
        scores = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(top_k_indices(scores, 10), np.array([0, 2, 1]))

    def test_k_equal_to_n(self):
        scores = np.array([1.0, 3.0, 2.0])
        assert np.array_equal(top_k_indices(scores, 3), np.array([1, 2, 0]))

    def test_ties_resolve_by_ascending_index(self):
        # All-equal scores: top-k must be the smallest indices, in order.
        scores = np.zeros(20)
        assert np.array_equal(top_k_indices(scores, 4), np.array([0, 1, 2, 3]))

    def test_interior_ties_are_stable(self):
        scores = np.array([5.0, 1.0, 5.0, 9.0, 1.0])
        assert np.array_equal(top_k_indices(scores, 3), np.array([3, 0, 2]))

    def test_neg_inf_entries_rank_last(self):
        scores = np.array([-np.inf, 2.0, -np.inf, 1.0])
        assert np.array_equal(top_k_indices(scores, 2), np.array([1, 3]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_indices(np.ones(5), 0)

    def test_invalid_ndim(self):
        with pytest.raises(ValueError):
            top_k_indices(np.ones((2, 2, 2)), 1)

    def test_int64_dtype(self):
        assert top_k_indices(np.ones(5), 2).dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        k=st.integers(1, 220),
    )
    def test_property_matches_stable_argsort_without_ties(self, seed, n, k):
        # Random draws from a continuous distribution are ties-free with
        # probability 1, where the helper promises bit-identity with a
        # full stable sort.
        scores = np.random.default_rng(seed).normal(size=n)
        assert len(np.unique(scores)) == n
        expected = np.argsort(-scores, kind="stable")[: min(k, n)]
        assert np.array_equal(top_k_indices(scores, k), expected)


class TestBoundaryTies:
    """Regression: ties straddling the k-th position (ISSUE 7).

    ``argpartition`` picks arbitrarily among equal scores at the cut;
    the helper must repair that so results always equal the stable full
    sort — retrieval's exact-vs-ANN comparisons assert *equality*, not
    set overlap, and depend on this total order.
    """

    def test_ties_across_the_cut_keep_smallest_indices(self):
        scores = np.array([5.0, 7.0, 5.0, 5.0, 1.0])
        # Two of the three 5.0s make the top-3; the stable order keeps
        # indices 0 and 2, never index 3.
        assert np.array_equal(top_k_indices(scores, 3), np.array([1, 0, 2]))

    def test_all_equal_scores_rank_by_index(self):
        assert np.array_equal(top_k_indices(np.ones(6), 4), np.arange(4))

    def test_batched_rows_repair_independently(self):
        scores = np.array(
            [
                [2.0, 2.0, 2.0, 2.0],
                [9.0, 1.0, 9.0, 9.0],
                [1.0, 2.0, 3.0, 4.0],
            ]
        )
        expected = np.argsort(-scores, axis=-1, kind="stable")[:, :2]
        assert np.array_equal(top_k_indices(scores, 2), expected)

    def test_neg_inf_ties_at_the_cut(self):
        scores = np.array([-np.inf, 3.0, -np.inf, -np.inf, 2.0])
        assert np.array_equal(
            top_k_indices(scores, 4), np.array([1, 4, 0, 2])
        )

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        k=st.integers(1, 70),
        levels=st.integers(1, 4),
    )
    def test_property_matches_stable_argsort_with_heavy_ties(
        self, seed, n, k, levels
    ):
        # Few distinct values => ties almost surely cross the cut.
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=n).astype(np.float64)
        expected = np.argsort(-scores, kind="stable")[: min(k, n)]
        assert np.array_equal(top_k_indices(scores, k), expected)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
        n=st.integers(1, 40),
        k=st.integers(1, 45),
    )
    def test_property_batched_with_ties_and_neg_inf(self, seed, rows, n, k):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 3, size=(rows, n)).astype(np.float64)
        mask = rng.random(size=scores.shape) < 0.3
        scores[mask] = -np.inf
        expected = np.argsort(-scores, axis=-1, kind="stable")[:, : min(k, n)]
        assert np.array_equal(top_k_indices(scores, k), expected)
