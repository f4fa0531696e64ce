"""S3-Rec-lite: attribute-aware pre-training (extension)."""

import numpy as np
import pytest

from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log_with_attributes
from repro.eval.evaluator import evaluate_model
from repro.models.s3rec_lite import S3RecLite, S3RecLiteConfig
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig
from tests.conftest import TRIM_TOLERANCES, assert_same_step, run_t_wide


@pytest.fixture(scope="module")
def attributed_dataset():
    config = SyntheticConfig(
        num_users=150,
        num_items=80,
        num_interests=8,
        mean_length=9.0,
        interest_persistence=0.75,
        seed=0,
    )
    log, attributes = generate_log_with_attributes(config)
    return SequenceDataset.from_log(log, raw_item_attributes=attributes)


def small_config():
    return SASRecConfig(
        dim=16,
        train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
    )


def small_s3():
    return S3RecLiteConfig(pretrain_epochs=1, batch_size=32)


class TestAttributePipeline:
    def test_attributes_attached(self, attributed_dataset):
        attrs = attributed_dataset.item_attributes
        assert attrs is not None
        assert len(attrs) == attributed_dataset.num_items + 1
        assert attrs[0] == 0  # padding

    def test_attributes_match_generator_clusters(self, attributed_dataset):
        """Re-indexed attributes still partition items into <= K groups."""
        attrs = attributed_dataset.item_attributes[1:]
        assert attrs.min() >= 0
        assert len(np.unique(attrs)) <= 8

    def test_subsample_carries_attributes(self, attributed_dataset):
        half = attributed_dataset.subsample_users(0.5, seed=0)
        np.testing.assert_array_equal(
            half.item_attributes, attributed_dataset.item_attributes
        )

    def test_dataset_without_attributes_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            S3RecLite(tiny_dataset, small_config())


class TestPretraining:
    def test_histories_recorded(self, attributed_dataset):
        model = S3RecLite(attributed_dataset, small_config(), s3=small_s3())
        history = model.pretrain(attributed_dataset)
        assert len(history.aap_losses) == 1
        assert len(history.mip_losses) == 1

    def test_aap_loss_decreases(self, attributed_dataset):
        model = S3RecLite(
            attributed_dataset,
            small_config(),
            s3=S3RecLiteConfig(pretrain_epochs=4, batch_size=32),
        )
        history = model.pretrain(attributed_dataset)
        assert history.aap_losses[-1] < history.aap_losses[0]

    def test_aap_learns_above_chance(self, attributed_dataset):
        """After pre-training, attribute prediction beats uniform chance
        (cross entropy below log(num_attributes))."""
        model = S3RecLite(
            attributed_dataset,
            small_config(),
            s3=S3RecLiteConfig(pretrain_epochs=4, batch_size=32),
        )
        history = model.pretrain(attributed_dataset)
        assert history.aap_losses[-1] < np.log(model.num_attributes)

    def test_attribute_embedding_trains(self, attributed_dataset):
        model = S3RecLite(attributed_dataset, small_config(), s3=small_s3())
        before = model.attribute_embedding.weight.data.copy()
        model.pretrain(attributed_dataset)
        assert not np.array_equal(before, model.attribute_embedding.weight.data)


class TestFullPipeline:
    def test_fit_runs_both_stages(self, attributed_dataset):
        model = S3RecLite(attributed_dataset, small_config(), s3=small_s3())
        history = model.fit(attributed_dataset)
        assert model.pretrain_history is not None
        assert len(history.losses) == 1

    def test_skip_pretrain(self, attributed_dataset):
        model = S3RecLite(attributed_dataset, small_config(), s3=small_s3())
        model.fit(attributed_dataset, skip_pretrain=True)
        assert model.pretrain_history is None

    def test_beats_chance(self, attributed_dataset):
        model = S3RecLite(
            attributed_dataset,
            SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=4, batch_size=32, max_length=12, seed=0),
            ),
            s3=S3RecLiteConfig(pretrain_epochs=2, batch_size=32),
        )
        model.fit(attributed_dataset)
        result = evaluate_model(model, attributed_dataset)
        chance = 10.0 / attributed_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_score_shape(self, attributed_dataset):
        model = S3RecLite(attributed_dataset, small_config(), s3=small_s3())
        model.fit(attributed_dataset, skip_pretrain=True)
        users = attributed_dataset.evaluation_users("test")[:3]
        scores = model.score_items(attributed_dataset, users)
        assert scores.shape == (3, attributed_dataset.num_items + 1)


class TestTrimmedPretraining:
    """AAP and MIP run only the batch's trailing ``w`` columns; the
    oracle is the T-wide forward (``run_t_wide``) on an identically
    seeded model."""

    def batch(self, model, lengths=(4, 8, 2, 6)):
        rng = np.random.default_rng(10)
        num_items = model.dataset_num_items
        histories = [rng.integers(1, num_items + 1, size=n) for n in lengths]
        return model._make_batch(histories, rng)

    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_pretraining_loss_matches_t_wide_oracle(
        self, attributed_dataset, dtype, loss_tol, grad_tol
    ):
        trimmed, oracle = (
            S3RecLite(attributed_dataset, small_config(), small_s3()).to_dtype(dtype)
            for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        clean, masked, labels = self.batch(trimmed)
        assert (clean[:, 0] == 0).all()
        assert_same_step(
            trimmed,
            oracle,
            lambda model: model.aap_loss(clean) + model.mip_loss(masked, labels),
            loss_tol,
            grad_tol,
        )

    def test_label_left_of_the_longest_history_is_refused(self, attributed_dataset):
        model = S3RecLite(attributed_dataset, small_config(), small_s3())
        __, masked, labels = self.batch(model)
        labels[1, 2] = 3  # w = 8: columns 0..3 are cut
        with pytest.raises(ValueError, match="labels is non-zero in column 2"):
            model.mip_loss(masked, labels)
