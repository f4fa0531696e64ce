"""Contrastive pre-training and joint training loops."""

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import pretrain_contrastive, train_joint
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig


def make_model(dataset, **cl_overrides):
    config = CL4SRecConfig(
        sasrec=SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        ),
        augmentations=("crop", "mask"),
        rates=0.5,
        **cl_overrides,
    )
    return CL4SRec(dataset, config)


class TestPretrainContrastive:
    def test_history_lengths(self, tiny_dataset):
        model = make_model(tiny_dataset)
        config = TrainConfig(epochs=3, batch_size=32, max_length=12)
        history = pretrain_contrastive(model, tiny_dataset, config)
        assert len(history.losses) == 3
        assert len(history.accuracies) == 3

    def test_loss_decreases(self, tiny_dataset):
        model = make_model(tiny_dataset)
        config = TrainConfig(epochs=5, batch_size=32, max_length=12)
        history = pretrain_contrastive(model, tiny_dataset, config)
        assert history.losses[-1] < history.losses[0]

    def test_accuracy_improves(self, tiny_dataset):
        model = make_model(tiny_dataset)
        config = TrainConfig(epochs=5, batch_size=32, max_length=12)
        history = pretrain_contrastive(model, tiny_dataset, config)
        assert history.accuracies[-1] > history.accuracies[0]

    def test_model_left_in_eval_mode(self, tiny_dataset):
        model = make_model(tiny_dataset)
        config = TrainConfig(epochs=1, batch_size=32, max_length=12)
        pretrain_contrastive(model, tiny_dataset, config)
        assert not model.training

    def test_deterministic_given_seed(self, tiny_dataset):
        def run():
            model = make_model(tiny_dataset)
            config = TrainConfig(epochs=2, batch_size=32, max_length=12, seed=3)
            return pretrain_contrastive(model, tiny_dataset, config).losses

        assert run() == run()

    def test_parameters_change(self, tiny_dataset):
        model = make_model(tiny_dataset)
        before = model.encoder.item_embedding.weight.data.copy()
        config = TrainConfig(epochs=1, batch_size=32, max_length=12)
        pretrain_contrastive(model, tiny_dataset, config)
        assert not np.array_equal(before, model.encoder.item_embedding.weight.data)


class TestTrainJoint:
    def test_runs_and_returns_losses(self, tiny_dataset):
        model = make_model(tiny_dataset)
        losses = train_joint(
            model,
            tiny_dataset,
            TrainConfig(epochs=2, batch_size=32, max_length=12),
        )
        assert len(losses) == 2
        assert all(np.isfinite(losses))

    def test_cl_weight_zero_close_to_supervised(self, tiny_dataset):
        """λ=0 joint loss must equal the pure supervised loss scale."""
        model = make_model(tiny_dataset, cl_weight=0.0)
        losses = train_joint(
            model, tiny_dataset, TrainConfig(epochs=1, batch_size=32, max_length=12)
        )
        # Supervised BCE starts near 2*log(2) ≈ 1.386 for random logits.
        assert losses[0] < 2.0

    def test_loss_decreases_over_epochs(self, tiny_dataset):
        model = make_model(tiny_dataset)
        losses = train_joint(
            model,
            tiny_dataset,
            TrainConfig(epochs=4, batch_size=32, max_length=12),
        )
        assert losses[-1] < losses[0]


class TestUnreadFieldsRefused:
    """The contrastive stages read neither validation nor negative
    sampling; a config that sets either is refused, not ignored."""

    @pytest.mark.parametrize(
        "field, value", [("eval_every", 1), ("negative_alpha", 0.5)]
    )
    @pytest.mark.parametrize(
        "train, stage",
        [(pretrain_contrastive, "PretrainStage"), (train_joint, "JointStage")],
    )
    def test_set_field_raises(self, tiny_dataset, train, stage, field, value):
        model = make_model(tiny_dataset)
        config = TrainConfig(epochs=1, batch_size=32, max_length=12, **{field: value})
        with pytest.raises(ValueError, match=f"{stage} does not read {field}"):
            train(model, tiny_dataset, config)
