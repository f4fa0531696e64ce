"""Caser extension baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.caser import Caser, CaserConfig
from repro.models.training import TrainConfig


def small_config(epochs=2, **overrides):
    base = dict(
        dim=16,
        window=5,
        horizontal_filters=4,
        filter_heights=(2, 3),
        vertical_filters=2,
        train=TrainConfig(epochs=epochs, batch_size=256, lr_final_factor=1.0, seed=0),
    )
    base.update(overrides)
    return CaserConfig(**base)


class TestConstruction:
    def test_filter_height_validated(self, tiny_dataset):
        with pytest.raises(ValueError):
            Caser(tiny_dataset, small_config(filter_heights=(2, 9), window=5))

    def test_parameters_registered(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config())
        names = {name for name, __ in model.named_parameters()}
        assert any(name.startswith("horizontal0") for name in names)
        assert any(name.startswith("vertical") for name in names)
        assert any(name.startswith("user_embedding") for name in names)


class TestForward:
    def test_convolve_shape(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config())
        windows = np.ones((6, 5), dtype=np.int64)
        assert model._convolve(windows).shape == (6, 16)

    def test_wrong_window_rejected(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config())
        with pytest.raises(ValueError):
            model._convolve(np.ones((2, 7), dtype=np.int64))

    def test_training_windows_next_item(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config())
        rows = model.training_rows(tiny_dataset)
        users, windows, targets = rows.users, rows.context, rows.positives
        assert len(users) == len(windows) == len(targets)
        # Each window's last real item precedes the target in the sequence.
        seq = tiny_dataset.train_sequences[users[0]]
        assert targets[0] == seq[1]
        assert windows[0][-1] == seq[0]


class TestTraining:
    def test_loss_decreases(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config(epochs=4))
        history = model.fit(tiny_dataset)
        assert history.losses[-1] < history.losses[0]

    def test_score_shape(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:5]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (5, tiny_dataset.num_items + 1)

    def test_beats_chance(self, tiny_dataset):
        model = Caser(tiny_dataset, small_config(epochs=5))
        model.fit(tiny_dataset)
        result = Evaluator(tiny_dataset).evaluate(model)
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_order_sensitivity(self, tiny_dataset):
        """Horizontal filters make the score depend on item order."""
        model = Caser(tiny_dataset, small_config(epochs=3))
        model.fit(tiny_dataset)
        model.eval()
        from repro.nn.tensor import no_grad

        window = np.array([[1, 2, 3, 4, 5]], dtype=np.int64)
        flipped = window[:, ::-1].copy()
        with no_grad():
            a = model._convolve(window).data
            b = model._convolve(flipped).data
        assert not np.allclose(a, b)

    def test_deterministic(self, tiny_dataset):
        def run():
            model = Caser(tiny_dataset, small_config(epochs=1))
            model.fit(tiny_dataset)
            return model.score_items(
                tiny_dataset, tiny_dataset.evaluation_users("test")[:2]
            )

        np.testing.assert_array_equal(run(), run())
