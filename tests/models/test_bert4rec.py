"""BERT4Rec extension baseline."""

import numpy as np
import pytest

from repro.data.loaders import pad_left
from repro.eval.evaluator import Evaluator
from repro.models.bert4rec import BERT4Rec, BERT4RecConfig
from repro.models.encoder import _GROUP_ROWS
from repro.models.training import TrainConfig
from repro.nn.tensor import no_grad
from tests.conftest import TRIM_TOLERANCES, assert_same_step, run_t_wide


def small_config(epochs=2, mask_probability=0.3):
    return BERT4RecConfig(
        dim=16,
        mask_probability=mask_probability,
        train=TrainConfig(epochs=epochs, batch_size=32, max_length=12, seed=0),
    )


class TestClozeBatches:
    def test_masked_positions_carry_labels(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config())
        sequences = tiny_dataset.train_sequences[:8]
        inputs, labels = model.make_cloze_batch(
            sequences, np.random.default_rng(0)
        )
        masked = inputs == tiny_dataset.mask_token
        assert masked.any()
        # Labels exist exactly at masked positions.
        np.testing.assert_array_equal(labels > 0, masked)

    def test_at_least_one_mask_per_sequence(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config(mask_probability=0.01))
        sequences = [s for s in tiny_dataset.train_sequences[:16] if len(s) >= 2]
        inputs, labels = model.make_cloze_batch(
            sequences, np.random.default_rng(0)
        )
        assert ((labels > 0).sum(axis=1) >= 1).all()

    def test_unmasked_positions_unchanged(self, tiny_dataset):
        from repro.data.loaders import pad_left

        model = BERT4Rec(tiny_dataset, small_config())
        sequences = tiny_dataset.train_sequences[:4]
        inputs, labels = model.make_cloze_batch(
            sequences, np.random.default_rng(1)
        )
        for row, sequence in enumerate(sequences):
            padded = pad_left(sequence, 12)
            keep = (inputs[row] != tiny_dataset.mask_token)
            np.testing.assert_array_equal(inputs[row][keep], padded[keep])


class TestTraining:
    def test_encoder_is_bidirectional(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config())
        assert model.encoder.causal is False

    def test_loss_decreases(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config(epochs=4))
        history = model.fit(tiny_dataset)
        assert history.losses[-1] < history.losses[0]

    def test_cloze_loss_finite_and_differentiable(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config())
        inputs, labels = model.make_cloze_batch(
            tiny_dataset.train_sequences[:8], np.random.default_rng(0)
        )
        loss = model.cloze_loss(inputs, labels)
        assert np.isfinite(loss.item())
        loss.backward()
        assert model.encoder.item_embedding.weight.grad is not None

    def test_no_masks_rejected(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config())
        inputs = np.ones((2, 12), dtype=np.int64)
        labels = np.zeros((2, 12), dtype=np.int64)
        with pytest.raises(ValueError):
            model.cloze_loss(inputs, labels)


def cloze_batch(model, lengths, num_items, seed=9):
    """A Cloze batch of random histories with ``lengths`` items."""
    rng = np.random.default_rng(seed)
    histories = [rng.integers(1, num_items + 1, size=n) for n in lengths]
    return model.make_cloze_batch(histories, rng)


class TestTrimmedCloze:
    """The bidirectional forward runs only the batch's trailing ``w``
    columns; the oracle is the T-wide forward (``run_t_wide``) on an
    identically seeded model, in train mode with dropout off."""

    @pytest.mark.parametrize(
        "lengths, width",
        [
            pytest.param([4, 8, 2, 6], 8, id="mixed"),
            pytest.param([5, 20, 3], 12, id="one-full-length-nothing-cut"),
            pytest.param([1, 1], 1, id="one-item"),
        ],
    )
    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_cloze_loss_matches_t_wide_oracle(
        self, tiny_dataset, lengths, width, dtype, loss_tol, grad_tol
    ):
        trimmed, oracle = (
            BERT4Rec(tiny_dataset, small_config()).to_dtype(dtype) for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        inputs, labels = cloze_batch(trimmed, lengths, tiny_dataset.num_items)
        assert_same_step(
            trimmed,
            oracle,
            lambda model: model.cloze_loss(inputs, labels),
            loss_tol,
            grad_tol,
        )
        with no_grad():
            assert trimmed.encoder(inputs).shape == (len(lengths), width, 16)

    def test_label_left_of_the_longest_history_is_refused(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config())
        inputs, labels = cloze_batch(model, [4, 8, 2, 6], tiny_dataset.num_items)
        labels[0, 1] = 7  # w = 8: columns 0..3 are cut
        with pytest.raises(ValueError, match="labels is non-zero in column 1"):
            model.cloze_loss(inputs, labels)


class TestInference:
    def test_score_shape(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:4]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (4, tiny_dataset.num_items + 1)

    def test_beats_chance(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset, small_config(epochs=5))
        model.fit(tiny_dataset)
        result = Evaluator(tiny_dataset).evaluate(model)
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    @pytest.mark.parametrize(
        "dtype, atol", [(np.float32, 1e-5), (np.float64, 1e-12)], ids=["float32", "float64"]
    )
    def test_length_grouped_encode_matches_t_wide_oracle(
        self, tiny_dataset, dtype, atol
    ):
        """``encode_sequences`` pads each length group only to its
        longest history; the oracle appends ``[mask]`` and encodes the
        T-wide batch.  The users span more than two groups, and include
        histories longer than T=12."""
        model = BERT4Rec(tiny_dataset, small_config()).to_dtype(dtype)
        users = tiny_dataset.evaluation_users("test")[:2 * _GROUP_ROWS + 1]
        sequences = [tiny_dataset.full_sequence(int(u), split="test") for u in users]
        assert max(len(s) for s in sequences) > 12
        grouped = model.encode_sequences(sequences)
        batch = np.stack(
            [pad_left(np.append(s, tiny_dataset.mask_token), 12) for s in sequences]
        )
        model.eval()
        with no_grad():
            oracle = model.encoder.user_representation(batch).data
        assert grouped.dtype == dtype
        np.testing.assert_allclose(grouped, oracle, rtol=0, atol=atol)

    def test_deterministic(self, tiny_dataset):
        def run():
            model = BERT4Rec(tiny_dataset, small_config(epochs=1))
            model.fit(tiny_dataset)
            return model.score_items(
                tiny_dataset, tiny_dataset.evaluation_users("test")[:2]
            )

        np.testing.assert_array_equal(run(), run())
