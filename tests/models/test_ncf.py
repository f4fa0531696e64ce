"""NCF (NeuMF) baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.ncf import NCF, NCFConfig
from repro.models.training import TrainConfig


def small_config(epochs=2):
    train = TrainConfig(epochs=epochs, batch_size=256, lr_final_factor=1.0, seed=0)
    return NCFConfig(dim=8, mlp_hidden=16, train=train)


class TestNCF:
    def test_built_at_construction(self, tiny_dataset):
        """The net exists before ``fit``, so a stage can take its parameters."""
        model = NCF(tiny_dataset, small_config())
        scores = model.score_items(tiny_dataset, np.array([0]))
        assert scores.shape == (1, tiny_dataset.num_items + 1)

    def test_score_shape(self, tiny_dataset):
        model = NCF(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.array([0, 1]))
        assert scores.shape == (2, tiny_dataset.num_items + 1)

    def test_personalized(self, tiny_dataset):
        model = NCF(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.array([0, 1]))
        assert not np.allclose(scores[0], scores[1])

    def test_training_beats_random_ranking(self, tiny_dataset):
        model = NCF(tiny_dataset, small_config(epochs=4))
        model.fit(tiny_dataset)
        result = Evaluator(tiny_dataset).evaluate(model)
        # Random full ranking over ~V items: HR@10 ≈ 10/V.
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_deterministic(self, tiny_dataset):
        def run():
            model = NCF(tiny_dataset, small_config())
            model.fit(tiny_dataset)
            return model.score_items(tiny_dataset, np.array([0]))

        np.testing.assert_array_equal(run(), run())

    def test_logits_finite(self, tiny_dataset):
        model = NCF(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.arange(4))
        assert np.isfinite(scores).all()
