"""Pop baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.pop import Pop


class TestPop:
    def test_requires_fit(self, tiny_dataset):
        with pytest.raises(RuntimeError):
            Pop().score_items(tiny_dataset, np.array([0]))

    def test_scores_are_counts(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        scores = pop.score_items(tiny_dataset, np.array([0, 1]))
        manual = np.zeros(tiny_dataset.num_items + 1)
        for seq in tiny_dataset.train_sequences:
            np.add.at(manual, seq, 1.0)
        manual[0] = 0.0
        np.testing.assert_array_equal(scores[0], manual)

    def test_same_scores_for_all_users(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        scores = pop.score_items(tiny_dataset, np.arange(5))
        for row in range(1, 5):
            np.testing.assert_array_equal(scores[row], scores[0])

    def test_padding_column_zero(self, tiny_dataset):
        pop = Pop().fit(tiny_dataset)
        scores = pop.score_items(tiny_dataset, np.array([0]))
        assert scores[0, 0] == 0.0

    def test_beats_random_on_skewed_data(self, tiny_dataset):
        """Popularity carries real signal on Zipf-ish data."""
        pop_result = Evaluator(tiny_dataset).evaluate(Pop().fit(tiny_dataset))

        class RandomScorer:
            def score_items(self, dataset, users, split="test"):
                rng = np.random.default_rng(0)
                return rng.random((len(users), dataset.num_items + 1))

        rand_result = Evaluator(tiny_dataset).evaluate(RandomScorer())
        assert pop_result["HR@10"] > rand_result["HR@10"]
