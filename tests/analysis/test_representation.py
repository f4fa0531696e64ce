"""Alignment / uniformity / embedding diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    ConvergenceTracker,
    alignment,
    embedding_statistics,
    representation_quality,
    uniformity,
)

RNG = np.random.default_rng(5)


class TestAlignment:
    def test_identical_views_zero(self):
        x = RNG.normal(size=(20, 8))
        assert alignment(x, x) == pytest.approx(0.0)

    def test_opposite_views_maximal(self):
        x = RNG.normal(size=(20, 8))
        assert alignment(x, -x) == pytest.approx(4.0)  # ‖u−(−u)‖²=4 on sphere

    def test_close_views_beat_random(self):
        x = RNG.normal(size=(50, 8))
        close = alignment(x, x + 0.05 * RNG.normal(size=x.shape))
        random = alignment(x, RNG.normal(size=x.shape))
        assert close < random

    def test_scale_invariant(self):
        x = RNG.normal(size=(10, 4))
        y = RNG.normal(size=(10, 4))
        assert alignment(x, y) == pytest.approx(alignment(10 * x, 0.1 * y))


class TestUniformity:
    def test_collapsed_representations_bad(self):
        spread = RNG.normal(size=(50, 8))
        collapsed = np.ones((50, 8)) + 0.001 * RNG.normal(size=(50, 8))
        assert uniformity(spread) < uniformity(collapsed)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            uniformity(np.ones((1, 4)))

    def test_bounded_above_by_zero(self):
        x = RNG.normal(size=(30, 6))
        assert uniformity(x) <= 0.0


class TestEmbeddingStatistics:
    def test_keys(self):
        stats = embedding_statistics(RNG.normal(size=(40, 8)))
        assert set(stats) == {"mean_norm", "std_norm", "anisotropy"}

    def test_anisotropy_detects_collapse(self):
        random_table = RNG.normal(size=(40, 8))
        collapsed = np.ones((40, 8)) + 0.01 * RNG.normal(size=(40, 8))
        assert (
            embedding_statistics(collapsed)["anisotropy"]
            > embedding_statistics(random_table)["anisotropy"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            embedding_statistics(np.ones(5))
        with pytest.raises(ValueError):
            embedding_statistics(np.ones((1, 5)))


class TestRepresentationQuality:
    def test_on_cl4srec(self, tiny_dataset):
        from repro.core.cl4srec import CL4SRec, CL4SRecConfig
        from repro.models.sasrec import SASRecConfig
        from repro.models.training import TrainConfig

        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            ),
            augmentations=("mask",),
            rates=0.5,
            pretrain=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        )
        model = CL4SRec(tiny_dataset, config)
        quality = representation_quality(model, tiny_dataset, max_length=12)
        assert set(quality) == {"alignment", "uniformity"}
        assert quality["alignment"] >= 0.0

    def test_deterministic_and_leaves_training_untouched(self, tiny_dataset):
        """A fresh model is in train mode: the diagnostic must still
        measure without dropout noise, leave the model's generator where
        it was (so a later ``fit`` is unchanged) and restore the mode."""
        from repro.core.cl4srec import CL4SRec, CL4SRecConfig
        from repro.models.sasrec import SASRecConfig
        from repro.models.training import TrainConfig

        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            ),
            augmentations=("mask",),
            rates=0.5,
        )
        model = CL4SRec(tiny_dataset, config)
        assert model.training
        state = model._rng.bit_generator.state
        first = representation_quality(model, tiny_dataset, max_length=12)
        second = representation_quality(model, tiny_dataset, max_length=12)
        assert first == second
        assert model._rng.bit_generator.state == state
        assert model.training

    def test_pretraining_improves_alignment(self, tiny_dataset):
        """The contrastive objective explicitly optimizes alignment —
        after pre-training, positive views must sit closer."""
        from repro.core.cl4srec import CL4SRec, CL4SRecConfig
        from repro.core.trainer import pretrain_contrastive
        from repro.models.sasrec import SASRecConfig
        from repro.models.training import TrainConfig

        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=0, batch_size=32, max_length=12, seed=0),
            ),
            augmentations=("mask",),
            rates=0.5,
        )
        model = CL4SRec(tiny_dataset, config)
        before = representation_quality(model, tiny_dataset, max_length=12)
        pretrain_contrastive(
            model,
            tiny_dataset,
            TrainConfig(epochs=4, batch_size=32, max_length=12, seed=0),
        )
        after = representation_quality(model, tiny_dataset, max_length=12)
        assert after["alignment"] < before["alignment"]


class TestConvergenceTracker:
    def test_epochs_to_reach(self):
        tracker = ConvergenceTracker()
        for score in (0.1, 0.2, 0.3):
            tracker.record("a", score)
        assert tracker.epochs_to_reach("a", 0.2) == 2
        assert tracker.epochs_to_reach("a", 0.5) is None
        assert tracker.epochs_to_reach("missing", 0.1) is None

    def test_faster(self):
        tracker = ConvergenceTracker()
        for score in (0.05, 0.3):
            tracker.record("warm", score)
        for score in (0.05, 0.1, 0.3):
            tracker.record("cold", score)
        assert tracker.faster("warm", "cold", bar=0.3)
        assert not tracker.faster("cold", "warm", bar=0.3)

    def test_faster_when_baseline_never_reaches(self):
        tracker = ConvergenceTracker()
        tracker.record("warm", 0.5)
        tracker.record("cold", 0.1)
        assert tracker.faster("warm", "cold", bar=0.4)
        assert not tracker.faster("cold", "warm", bar=0.4)
