"""FPMC extension baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.fpmc import FPMC, FPMCConfig
from repro.models.training import TrainConfig


def small_config(epochs=3):
    train = TrainConfig(epochs=epochs, batch_size=256, lr_final_factor=1.0, seed=0)
    return FPMCConfig(dim=16, train=train)


class TestFPMC:
    def test_built_at_construction(self, tiny_dataset):
        """The net exists before ``fit``, so a stage can take its parameters."""
        model = FPMC(tiny_dataset, small_config())
        users = tiny_dataset.evaluation_users("test")[:1]
        assert model.score_items(tiny_dataset, users).shape == (
            1,
            tiny_dataset.num_items + 1,
        )

    def test_transitions_are_adjacent_pairs(self, tiny_dataset):
        model = FPMC(tiny_dataset, small_config())
        rows = model.training_rows(tiny_dataset)
        users, prev, nxt = rows.users, rows.context[:, -1], rows.positives
        seq = tiny_dataset.train_sequences[users[0]]
        assert prev[0] == seq[0]
        assert nxt[0] == seq[1]
        total = sum(max(0, len(s) - 1) for s in tiny_dataset.train_sequences)
        assert len(users) == total

    def test_loss_decreases(self, tiny_dataset):
        model = FPMC(tiny_dataset, small_config(epochs=5))
        history = model.fit(tiny_dataset)
        assert history.losses[-1] < history.losses[0]

    def test_score_shape(self, tiny_dataset):
        model = FPMC(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:5]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (5, tiny_dataset.num_items + 1)

    def test_beats_chance(self, tiny_dataset):
        model = FPMC(tiny_dataset, small_config(epochs=6))
        model.fit(tiny_dataset)
        result = Evaluator(tiny_dataset).evaluate(model)
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_markov_term_reacts_to_last_item(self, tiny_dataset):
        """Scores must depend on the most recent interaction."""
        model = FPMC(tiny_dataset, small_config(epochs=3))
        model.fit(tiny_dataset)
        # Pick a user whose test-time last item differs from their
        # valid-time last item (i.e. no immediate repeat at the end).
        chosen = None
        for user in tiny_dataset.evaluation_users("test"):
            test_last = tiny_dataset.full_sequence(int(user), split="test")[-1]
            valid_last = tiny_dataset.full_sequence(int(user), split="valid")[-1]
            if test_last != valid_last:
                chosen = int(user)
                break
        assert chosen is not None
        users = np.asarray([chosen])
        base = model.score_items(tiny_dataset, users)
        # Same user one step earlier: only the Markov term changes.
        other = model.score_items(tiny_dataset, users, split="valid")
        assert not np.allclose(base, other)

    def test_deterministic(self, tiny_dataset):
        def run():
            model = FPMC(tiny_dataset, small_config(epochs=1))
            model.fit(tiny_dataset)
            return model.score_items(
                tiny_dataset, tiny_dataset.evaluation_users("test")[:2]
            )

        np.testing.assert_array_equal(run(), run())
