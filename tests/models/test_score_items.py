"""The one scoring contract: ``score_items(dataset, users, split)``."""

import numpy as np
import pytest

from repro.eval.evaluator import candidate_scores
from repro.experiments.config import ExperimentScale
from repro.models.base import Recommender, SequenceRecommender
from repro.models.registry import available_models, build_model

#: Methods cheap enough to fit inside the unit suite.
FAST_MODELS = ("Pop", "BPR-MF", "GRU4Rec", "SASRec")


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    scale = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)
    models = {}
    for name in FAST_MODELS:
        model = build_model(name, tiny_dataset, scale)
        model.fit(tiny_dataset)  # sequential models return a history, not self
        models[name] = model
    return models


@pytest.mark.parametrize("name", FAST_MODELS)
class TestCandidateScoring:
    def test_items_none_matches_score_users(self, name, fitted, tiny_dataset):
        """The evaluator's entry point scores exactly what the model does."""
        model = fitted[name]
        users = np.arange(4)
        assert np.array_equal(
            candidate_scores(model, tiny_dataset, users, split="test"),
            model.score_items(tiny_dataset, users),
        )

    def test_full_matrix_shape(self, name, fitted, tiny_dataset):
        model = fitted[name]
        scores = model.score_items(tiny_dataset, np.arange(3))
        assert scores.shape == (3, tiny_dataset.num_items + 1)


class TestBaseClassDefaults:
    def test_neither_method_raises(self, tiny_dataset):
        class Broken(Recommender):
            def fit(self, dataset, **kwargs):
                return self

        with pytest.raises(TypeError, match="score_items"):
            Broken()

    @pytest.mark.parametrize("name", ("GRU4Rec", "SASRec"))
    def test_representation_models_score_through_the_pair(
        self, name, fitted, tiny_dataset
    ):
        """``score_items`` is each user's representation · the item matrix."""
        model = fitted[name]
        assert isinstance(model, SequenceRecommender)
        users = np.arange(5)
        sequences = [tiny_dataset.full_sequence(int(u), split="valid") for u in users]
        expected = model.encode_sequences(sequences) @ model.item_embedding_matrix(
            tiny_dataset.num_items
        ).T
        assert np.array_equal(
            model.score_items(tiny_dataset, users, split="valid"), expected
        )

    def test_representation_pair_is_required(self):
        class NoPair(SequenceRecommender):
            def fit(self, dataset, **kwargs):
                return self

        with pytest.raises(TypeError, match="encode_sequences"):
            NoPair()


@pytest.mark.parametrize(
    "name", [name for name in available_models() if name != "Pop"]
)
def test_every_trained_model_scores_in_float32(name, tiny_dataset):
    """One precision: every trained model scores in its parameters' float32."""
    scale = ExperimentScale(
        epochs=1, pretrain_epochs=1, dim=16, batch_size=32, max_length=12
    )
    model = build_model(name, tiny_dataset, scale)
    model.fit(tiny_dataset)
    scores = model.score_items(tiny_dataset, tiny_dataset.evaluation_users("test")[:5])
    assert scores.dtype == np.float32
