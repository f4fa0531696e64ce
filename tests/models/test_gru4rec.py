"""GRU4Rec baseline."""

import numpy as np

from repro.eval.evaluator import Evaluator
from repro.models.gru4rec import GRU4Rec, GRU4RecConfig
from repro.models.training import TrainConfig


def small_config(**train_overrides):
    train = dict(epochs=2, batch_size=32, max_length=12, seed=0)
    train.update(train_overrides)
    return GRU4RecConfig(dim=16, hidden_dim=16, train=TrainConfig(**train))


class TestGRU4Rec:
    def test_loss_decreases(self, tiny_dataset):
        model = GRU4Rec(tiny_dataset, small_config(epochs=4))
        history = model.fit(tiny_dataset)
        assert history.losses[-1] < history.losses[0]

    def test_score_shape(self, tiny_dataset):
        model = GRU4Rec(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:4]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (4, tiny_dataset.num_items + 1)

    def test_beats_chance(self, tiny_dataset):
        model = GRU4Rec(tiny_dataset, small_config(epochs=5))
        model.fit(tiny_dataset)
        result = Evaluator(tiny_dataset).evaluate(model)
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_order_sensitivity(self, tiny_dataset):
        """A recurrent model must produce order-dependent scores."""
        model = GRU4Rec(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        model.eval()
        import repro.data.loaders as loaders

        seq = tiny_dataset.train_sequences[
            int(np.argmax([len(s) for s in tiny_dataset.train_sequences]))
        ][:6]
        a = loaders.pad_left(seq, 12)[None, :]
        b = loaders.pad_left(seq[::-1].copy(), 12)[None, :]
        from repro.nn.tensor import no_grad

        with no_grad():
            ra = model._hidden_states(a).data[:, -1, :]
            rb = model._hidden_states(b).data[:, -1, :]
        assert not np.allclose(ra, rb)

    def test_deterministic(self, tiny_dataset):
        def run():
            model = GRU4Rec(tiny_dataset, small_config())
            model.fit(tiny_dataset)
            return model.score_items(
                tiny_dataset, tiny_dataset.evaluation_users("test")[:2]
            )

        np.testing.assert_array_equal(run(), run())
