"""CL4SRec model: config, losses, training regimes, scoring."""

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.data.loaders import ContrastiveBatch, ContrastiveBatchLoader, pad_left
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig
from tests.conftest import TRIM_TOLERANCES, assert_same_step, run_t_wide


def small_config(**overrides):
    base = dict(
        sasrec=SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        ),
        augmentations=("mask",),
        rates=0.5,
        pretrain=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        joint=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
    )
    base.update(overrides)
    return CL4SRecConfig(**base)


class TestConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            CL4SRecConfig(mode="multitask")

    def test_defaults(self):
        config = CL4SRecConfig()
        assert config.mode == "pretrain_finetune"
        assert set(config.augmentations) == {"crop", "mask", "reorder"}

    def test_one_training_config_per_stage(self):
        config = CL4SRecConfig()
        assert config.pretrain == TrainConfig(epochs=5)
        assert config.joint == TrainConfig()
        assert (config.temperature, config.cl_weight) == (1.0, 0.1)


class TestConstruction:
    def test_operators_built_from_names(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config(augmentations=("crop", "reorder")))
        names = [type(op).__name__ for op in model.operators]
        assert names == ["Crop", "Reorder"]

    def test_mask_token_wired_to_dataset(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config(augmentations=("mask",)))
        assert model.operators[0].mask_token == tiny_dataset.mask_token

    def test_projection_head_registered(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        names = {name for name, __ in model.named_parameters()}
        assert any(name.startswith("projection.") for name in names)


class TestContrastiveLoss:
    def test_loss_is_finite_scalar(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        loader = ContrastiveBatchLoader(
            tiny_dataset, model.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        batch = next(iter(loader.epoch()))
        loss, accuracy = model.contrastive_loss(batch)
        assert np.isfinite(loss.item())
        assert 0.0 <= accuracy <= 1.0

    def test_gradients_reach_encoder_and_projection(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        loader = ContrastiveBatchLoader(
            tiny_dataset, model.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        batch = next(iter(loader.epoch()))
        loss, __ = model.contrastive_loss(batch)
        loss.backward()
        assert model.projection.linear.weight.grad is not None
        assert model.encoder.item_embedding.weight.grad is not None


class TestFit:
    def test_pretrain_finetune_pipeline(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        history = model.fit(tiny_dataset)
        assert model.pretrain_history is not None
        assert len(model.pretrain_history.losses) == 1
        assert len(history.losses) == 1

    def test_skip_pretrain(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        model.fit(tiny_dataset, skip_pretrain=True)
        assert model.pretrain_history is None

    def test_joint_mode(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config(mode="joint"))
        history = model.fit(tiny_dataset)
        assert len(history.losses) == 1
        assert model.pretrain_history is None

    def test_pretraining_reduces_contrastive_loss(self, tiny_dataset):
        config = small_config(
            pretrain=TrainConfig(epochs=4, batch_size=32, max_length=12, seed=0)
        )
        model = CL4SRec(tiny_dataset, config)
        from repro.core.trainer import pretrain_contrastive

        history = pretrain_contrastive(model, tiny_dataset, config.pretrain)
        assert history.losses[-1] < history.losses[0]

    def test_fit_overrides_epochs(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        history = model.fit(tiny_dataset, epochs=2)
        assert len(history.losses) == 2

    def test_joint_fit_overrides_epochs(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config(mode="joint"))
        history = model.fit(tiny_dataset, epochs=2)
        assert len(history.losses) == 2
        assert model.cl_config.joint.epochs == 1  # the config is not edited


class TestScoring:
    def test_score_users_shape(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        users = tiny_dataset.evaluation_users("test")[:5]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (5, tiny_dataset.num_items + 1)

    def test_projected_scoring_shape(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        users = tiny_dataset.evaluation_users("test")[:5]
        scores = model.score_users_projected(tiny_dataset, users)
        assert scores.shape == (5, tiny_dataset.num_items + 1)

    def test_scoring_deterministic_in_eval(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        users = tiny_dataset.evaluation_users("test")[:4]
        a = model.score_items(tiny_dataset, users)
        b = model.score_items(tiny_dataset, users)
        np.testing.assert_array_equal(a, b)


def view_pair(lengths_a, lengths_b, num_items, t=12, seed=8):
    """A hand-built contrastive batch of random left-padded views."""
    rng = np.random.default_rng(seed)

    def views(lengths):
        return np.stack([pad_left(rng.integers(1, num_items + 1, n), t) for n in lengths])

    return ContrastiveBatch(np.arange(len(lengths_a)), views(lengths_a), views(lengths_b))


class TestTrimmedContrastiveStep:
    """Both views' ``user_representation`` run only their trailing ``w``
    columns; the oracle is the T-wide forward's last row
    (``run_t_wide``) on an identically seeded model."""

    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_crop_shortened_views_match_t_wide_oracle(
        self, tiny_dataset, dtype, loss_tol, grad_tol
    ):
        config = small_config(augmentations=("crop",), rates=0.5)
        trimmed, oracle = (
            CL4SRec(tiny_dataset, config).to_dtype(dtype) for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        loader = ContrastiveBatchLoader(
            tiny_dataset, trimmed.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        batch = next(iter(loader.epoch()))
        # Both views are cut: no row reaches the first column.
        assert (batch.view_a[:, 0] == 0).all() and (batch.view_b[:, 0] == 0).all()
        assert_same_step(
            trimmed,
            oracle,
            lambda model: model.contrastive_loss(batch)[0],
            loss_tol,
            grad_tol,
        )

    @pytest.mark.parametrize(
        "lengths_a, lengths_b",
        [
            pytest.param([3, 12, 5], [20, 2, 4], id="full-length-nothing-cut"),
            pytest.param([1, 1, 1], [1, 1, 1], id="one-item-views"),
        ],
    )
    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_edge_widths_match_t_wide_oracle(
        self, tiny_dataset, lengths_a, lengths_b, dtype, loss_tol, grad_tol
    ):
        trimmed, oracle = (
            CL4SRec(tiny_dataset, small_config()).to_dtype(dtype) for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        batch = view_pair(lengths_a, lengths_b, tiny_dataset.num_items)
        assert_same_step(
            trimmed,
            oracle,
            lambda model: model.contrastive_loss(batch)[0],
            loss_tol,
            grad_tol,
        )

    def test_right_padded_view_is_refused(self, tiny_dataset):
        model = CL4SRec(tiny_dataset, small_config())
        batch = view_pair([3, 5], [4, 2], tiny_dataset.num_items)
        batch.view_b[1] = np.roll(batch.view_b[1], 2)  # items now in columns 0 and 11
        with pytest.raises(ValueError, match="item_ids is non-zero in column 0"):
            model.contrastive_loss(batch)
