"""Grid-search sweep utility."""

import numpy as np
import pytest

from repro.experiments.sweep import SweepResult, grid, run_sweep


class FixedScorer:
    """Deterministic scorer whose quality is controlled by a knob."""

    def __init__(self, dataset, quality):
        self.dataset = dataset
        self.quality = quality

    def score_items(self, dataset, users, split="test"):
        targets = (
            dataset.test_targets if split == "test" else dataset.valid_targets
        )
        rng = np.random.default_rng(0)
        scores = rng.random((len(users), dataset.num_items + 1))
        for row, user in enumerate(users):
            if rng.random() < self.quality:
                scores[row, targets[user]] = 10.0
        return scores


class TestGrid:
    def test_cartesian_product(self):
        points = grid(a=[1, 2], b=["x", "y"])
        assert len(points) == 4
        assert {"a": 1, "b": "y"} in points

    def test_single_axis(self):
        assert grid(rate=[0.1]) == [{"rate": 0.1}]


class TestRunSweep:
    def test_selects_best_on_validation(self, tiny_dataset):
        result = run_sweep(
            lambda p: FixedScorer(tiny_dataset, p["quality"]),
            tiny_dataset,
            grid(quality=[0.1, 0.9, 0.5]),
            metric="HR@10",
        )
        assert result.best.params == {"quality": 0.9}

    def test_only_best_gets_test_metrics(self, tiny_dataset):
        result = run_sweep(
            lambda p: FixedScorer(tiny_dataset, p["quality"]),
            tiny_dataset,
            grid(quality=[0.2, 0.8]),
        )
        with_test = [p for p in result.points if p.test_metrics is not None]
        assert len(with_test) == 1
        assert with_test[0] is result.best

    def test_empty_grid_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_sweep(lambda p: None, tiny_dataset, [])

    def test_markdown(self, tiny_dataset):
        result = run_sweep(
            lambda p: FixedScorer(tiny_dataset, p["quality"]),
            tiny_dataset,
            grid(quality=[0.2, 0.8]),
        )
        md = result.to_markdown()
        assert "Hyper-parameter sweep" in md
        assert "*" in md  # winner marked

    def test_empty_result_best_raises(self):
        with pytest.raises(ValueError):
            SweepResult(metric="HR@10").best

    def test_with_real_model(self, tiny_dataset):
        """End-to-end: sweep a real CL4SRec augmentation rate."""
        from repro.core.cl4srec import CL4SRec, CL4SRecConfig
        from repro.models.sasrec import SASRecConfig
        from repro.models.training import TrainConfig

        def build_and_fit(params):
            config = CL4SRecConfig(
                sasrec=SASRecConfig(
                    dim=16,
                    train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
                ),
                augmentations=("mask",),
                rates=params["gamma"],
                pretrain=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            )
            model = CL4SRec(tiny_dataset, config)
            model.fit(tiny_dataset)
            return model

        result = run_sweep(
            build_and_fit, tiny_dataset, grid(gamma=[0.3, 0.7]), max_eval_users=60
        )
        assert len(result.points) == 2
        assert result.best.test_metrics is not None
