"""Recommender base-class conveniences."""

import numpy as np
import pytest

from repro.models.base import Recommender
from repro.models.pop import Pop


class _SeenOnlyScorer(Recommender):
    """Scores only the user's seen items; everything else is -inf."""

    def fit(self, dataset, **kwargs):
        return self

    def score_items(self, dataset, users, split="test"):
        scores = np.full((len(users), dataset.num_items + 1), -np.inf)
        for row, user in enumerate(users):
            scores[row, dataset.seen_items(int(user))] = 1.0
        return scores


class _PadLovingScorer(Recommender):
    """Gives the padding id the best score of all."""

    def fit(self, dataset, **kwargs):
        return self

    def score_items(self, dataset, users, split="test"):
        scores = np.zeros((len(users), dataset.num_items + 1))
        scores[:, 0] = 1e9
        return scores


class TestRecommend:
    def test_returns_k_items(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        items = pop.recommend(tiny_dataset, user=0, k=7)
        assert len(items) == 7
        assert len(set(items.tolist())) == 7

    def test_excludes_seen_by_default(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        items = pop.recommend(tiny_dataset, user=0, k=10)
        seen = set(tiny_dataset.seen_items(0).tolist())
        assert not (set(items.tolist()) & seen)

    def test_include_seen_option(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        with_seen = pop.recommend(tiny_dataset, user=0, k=10, exclude_seen=False)
        # Pop's global top item is usually in most users' histories, so
        # the two lists generally differ; at minimum they are valid ids.
        assert with_seen.min() >= 1

    def test_padding_never_recommended(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        items = pop.recommend(tiny_dataset, user=0, k=tiny_dataset.num_items)
        assert 0 not in items

    def test_k_clamped_to_catalogue(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        items = pop.recommend(tiny_dataset, user=0, k=10 ** 6)
        assert len(items) <= tiny_dataset.num_items

    def test_invalid_k(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        with pytest.raises(ValueError):
            pop.recommend(tiny_dataset, user=0, k=0)

    def test_descending_score_order(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        items = pop.recommend(tiny_dataset, user=0, k=5)
        scores = pop.score_items(tiny_dataset, np.array([0]))[0]
        values = scores[items]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_exclude_seen_can_empty_the_list(self, tiny_dataset):
        # When every scoreable item is in the user's history, excluding
        # seen items leaves nothing — recommend returns a short (here
        # empty) list rather than padding with masked items.
        model = _SeenOnlyScorer().fit(tiny_dataset)
        items = model.recommend(tiny_dataset, user=0, k=10)
        assert len(items) == 0
        with_seen = model.recommend(tiny_dataset, user=0, k=10, exclude_seen=False)
        seen = set(tiny_dataset.seen_items(0).tolist())
        assert set(with_seen.tolist()) <= seen
        assert len(with_seen) == min(10, len(seen))

    def test_k_larger_than_catalogue_returns_unique_items(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        items = pop.recommend(
            tiny_dataset, user=0, k=tiny_dataset.num_items * 3, exclude_seen=False
        )
        assert len(items) == tiny_dataset.num_items  # all real items, once
        assert len(set(items.tolist())) == len(items)
        assert 0 not in items

    def test_padding_excluded_even_with_top_score(self, tiny_dataset):
        model = _PadLovingScorer().fit(tiny_dataset)
        items = model.recommend(tiny_dataset, user=0, k=5, exclude_seen=False)
        assert 0 not in items
        assert len(items) == 5

    def test_works_for_sequential_model(self, tiny_dataset):
        from repro.models.sasrec import SASRec, SASRecConfig
        from repro.models.training import TrainConfig

        model = SASRec(
            tiny_dataset,
            SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            ),
        )
        model.fit(tiny_dataset)
        items = model.recommend(tiny_dataset, user=3, k=5)
        assert len(items) == 5
