"""NCF (NeuMF) baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import evaluate_model
from repro.models.ncf import NCF, NCFConfig


def small_config(**overrides):
    base = dict(dim=8, mlp_hidden=16, epochs=2, batch_size=256, seed=0)
    base.update(overrides)
    return NCFConfig(**base)


class TestNCF:
    def test_requires_fit(self, tiny_dataset):
        with pytest.raises(RuntimeError):
            NCF().score_items(tiny_dataset, np.array([0]))

    def test_score_shape(self, tiny_dataset):
        model = NCF(small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.array([0, 1]))
        assert scores.shape == (2, tiny_dataset.num_items + 1)

    def test_personalized(self, tiny_dataset):
        model = NCF(small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.array([0, 1]))
        assert not np.allclose(scores[0], scores[1])

    def test_training_beats_random_ranking(self, tiny_dataset):
        model = NCF(small_config(epochs=4))
        model.fit(tiny_dataset)
        result = evaluate_model(model, tiny_dataset)
        # Random full ranking over ~V items: HR@10 ≈ 10/V.
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_deterministic(self, tiny_dataset):
        def run():
            model = NCF(small_config())
            model.fit(tiny_dataset)
            return model.score_items(tiny_dataset, np.array([0]))

        np.testing.assert_array_equal(run(), run())

    def test_logits_finite(self, tiny_dataset):
        model = NCF(small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.arange(4))
        assert np.isfinite(scores).all()
