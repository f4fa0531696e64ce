"""BPR-MF baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.bprmf import BPRMF, BPRMFConfig
from repro.models.losses import bpr_loss
from repro.models.training import TrainConfig
from repro.nn.tensor import Tensor


def small_config(epochs=3):
    train = TrainConfig(epochs=epochs, batch_size=128, lr_final_factor=1.0, seed=0)
    return BPRMFConfig(dim=16, train=train)


class TestBPRLoss:
    def test_value_for_equal_scores(self):
        loss = bpr_loss(Tensor([1.0]), Tensor([1.0]))
        assert loss.item() == pytest.approx(np.log(2))

    def test_decreases_with_margin(self):
        tight = bpr_loss(Tensor([1.0]), Tensor([0.9])).item()
        wide = bpr_loss(Tensor([1.0]), Tensor([-5.0])).item()
        assert wide < tight

    def test_gradient_direction(self):
        pos = Tensor([0.0], requires_grad=True)
        neg = Tensor([0.0], requires_grad=True)
        bpr_loss(pos, neg).backward()
        assert pos.grad[0] < 0  # increase positive score
        assert neg.grad[0] > 0  # decrease negative score


class TestBPRMF:
    def test_built_at_construction(self, tiny_dataset):
        """The net exists before ``fit``, so a stage can take its parameters."""
        model = BPRMF(tiny_dataset, small_config())
        assert model.score_items(tiny_dataset, np.array([0])).shape == (
            1,
            tiny_dataset.num_items + 1,
        )
        assert len(list(model.parameters())) == 2

    def test_score_shape(self, tiny_dataset):
        model = BPRMF(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.array([0, 3, 5]))
        assert scores.shape == (3, tiny_dataset.num_items + 1)

    def test_personalized(self, tiny_dataset):
        model = BPRMF(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        scores = model.score_items(tiny_dataset, np.array([0, 1]))
        assert not np.allclose(scores[0], scores[1])

    def test_item_embeddings_shape(self, tiny_dataset):
        model = BPRMF(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        emb = model.item_embeddings()
        assert emb.shape == (tiny_dataset.num_items + 1, 16)

    def test_training_beats_untrained(self, tiny_dataset):
        trained = BPRMF(tiny_dataset, small_config(epochs=6))
        trained.fit(tiny_dataset)
        untrained = BPRMF(tiny_dataset, small_config(epochs=0))
        # epochs=0: fit initializes but never steps.
        untrained.fit(tiny_dataset)
        a = Evaluator(tiny_dataset).evaluate(trained)["NDCG@10"]
        b = Evaluator(tiny_dataset).evaluate(untrained)["NDCG@10"]
        assert a > b

    def test_deterministic(self, tiny_dataset):
        a = BPRMF(tiny_dataset, small_config())
        a.fit(tiny_dataset)
        b = BPRMF(tiny_dataset, small_config())
        b.fit(tiny_dataset)
        np.testing.assert_array_equal(a.item_embeddings(), b.item_embeddings())
