"""Attention interpretability probes."""

import numpy as np
import pytest

from repro.analysis.attention_probe import (
    attention_entropy,
    attention_maps,
    recency_profile,
)
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig


@pytest.fixture(scope="module")
def model(tiny_dataset):
    m = SASRec(
        tiny_dataset,
        SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=2, batch_size=32, max_length=12, seed=0),
        ),
    )
    m.fit(tiny_dataset)
    return m


@pytest.fixture(scope="module")
def batch(tiny_dataset):
    from repro.data.loaders import pad_left

    users = tiny_dataset.evaluation_users("test")[:6]
    return np.stack(
        [
            pad_left(tiny_dataset.full_sequence(int(u)), 12)
            for u in users
        ]
    )


class TestAttentionMaps:
    def test_one_map_per_layer(self, model, batch):
        maps = attention_maps(model.encoder, batch)
        assert len(maps) == model.config.num_layers

    def test_shape(self, model, batch):
        maps = attention_maps(model.encoder, batch)
        assert maps[0].shape == (6, model.config.num_heads, 12, 12)

    def test_rows_are_distributions(self, model, batch):
        maps = attention_maps(model.encoder, batch)
        sums = maps[0].sum(axis=-1)
        # A row of 12 probabilities sums to 1 within a few ulps of its dtype.
        np.testing.assert_allclose(
            sums, np.ones_like(sums), rtol=0, atol=8 * np.finfo(maps[0].dtype).eps
        )

    def test_causal_zeros_above_diagonal(self, model, batch):
        maps = attention_maps(model.encoder, batch)
        upper = np.triu_indices(12, k=1)
        for layer_map in maps:
            assert np.abs(layer_map[:, :, upper[0], upper[1]]).max() < 1e-9

    def test_padding_keys_receive_no_attention_from_real_queries(
        self, model, batch
    ):
        maps = attention_maps(model.encoder, batch)[0]
        for row in range(len(batch)):
            padding = batch[row] == 0
            if not padding.any():
                continue
            real_queries = ~padding
            # Attention from real queries to padded keys must be ~0.
            assert maps[row][:, real_queries][:, :, padding].max() < 1e-9

    def test_matches_forward_output(self, model, batch):
        """The probe's re-run must not perturb the encoder's output."""
        from repro.nn.tensor import no_grad

        with no_grad():
            before = model.encoder.user_representation(batch).data.copy()
        attention_maps(model.encoder, batch)
        with no_grad():
            after = model.encoder.user_representation(batch).data
        np.testing.assert_array_equal(before, after)

    def test_wrong_width_batch_raises(self, model, batch):
        """The probe runs the encoder's own embedding step, length check
        included: it cannot report maps for a forward the model refuses."""
        encoder = model.encoder
        was_training = encoder.training
        encoder.train()
        try:
            with pytest.raises(
                ValueError, match="expected sequences of length 12, got 8"
            ):
                attention_maps(encoder, batch[:, -8:])
            assert encoder.training  # the probe's eval() is undone on the way out
        finally:
            encoder.train(was_training)


class TestRecencyProfile:
    def test_shape_and_normalization(self, model, tiny_dataset):
        users = tiny_dataset.evaluation_users("test")[:10]
        profile = recency_profile(model, tiny_dataset, users)
        assert profile.shape == (10,)
        assert (profile >= 0).all()
        assert profile.max() <= 1.0

    def test_last_item_gets_substantial_weight(self, model, tiny_dataset):
        """The final position always attends to itself among ≤T keys, so
        offset 0 should carry non-trivial weight."""
        users = tiny_dataset.evaluation_users("test")[:10]
        profile = recency_profile(model, tiny_dataset, users)
        assert profile[0] > 0.02


class TestAttentionEntropy:
    def test_uniform_rows_max_entropy(self):
        t = 8
        maps = np.full((2, 2, t, t), 1.0 / t)
        padding = np.zeros((2, t), dtype=bool)
        assert attention_entropy(maps, padding) == pytest.approx(np.log(t))

    def test_peaked_rows_zero_entropy(self):
        t = 6
        maps = np.zeros((1, 1, t, t))
        maps[..., 0] = 1.0
        padding = np.zeros((1, t), dtype=bool)
        assert attention_entropy(maps, padding) == pytest.approx(0.0, abs=1e-9)

    def test_all_padding_raises(self):
        maps = np.full((1, 1, 4, 4), 0.25)
        padding = np.ones((1, 4), dtype=bool)
        with pytest.raises(ValueError):
            attention_entropy(maps, padding)

    def test_on_real_model(self, model, batch):
        maps = attention_maps(model.encoder, batch)[0]
        entropy = attention_entropy(maps, batch == 0)
        assert 0.0 <= entropy <= np.log(12)
