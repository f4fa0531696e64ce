"""End-to-end integration: the paper's qualitative claims at test scale.

These train real models on a small structured dataset and assert the
*relative* orderings the paper reports, not absolute numbers.
"""

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.eval.evaluator import Evaluator
from repro.models.pop import Pop
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    # A slightly larger dataset than the unit-test fixture so that the
    # trained-model orderings are stable.
    return make_tiny_dataset(num_users=400, num_items=150, seed=1)


@pytest.fixture(scope="module")
def train_config():
    return TrainConfig(epochs=5, batch_size=64, max_length=15, seed=1)


@pytest.fixture(scope="module")
def sasrec_result(dataset, train_config):
    model = SASRec(dataset, SASRecConfig(dim=24, train=train_config))
    model.fit(dataset)
    return Evaluator(dataset).evaluate(model)


@pytest.fixture(scope="module")
def cl4srec_result(dataset, train_config):
    config = CL4SRecConfig(
        sasrec=SASRecConfig(dim=24, train=train_config),
        augmentations=("crop", "mask", "reorder"),
        rates=0.5,
        pretrain=TrainConfig(epochs=3, batch_size=64, max_length=15, seed=1),
    )
    model = CL4SRec(dataset, config)
    model.fit(dataset)
    return Evaluator(dataset).evaluate(model)


class TestPaperClaims:
    def test_sasrec_beats_pop_on_ndcg(self, dataset, sasrec_result):
        pop_result = Evaluator(dataset).evaluate(Pop().fit(dataset))
        assert sasrec_result["NDCG@10"] > pop_result["NDCG@10"]

    def test_cl4srec_beats_sasrec(self, sasrec_result, cl4srec_result):
        """The headline claim (Table 2)."""
        assert cl4srec_result["NDCG@10"] > sasrec_result["NDCG@10"]
        assert cl4srec_result["HR@10"] > sasrec_result["HR@10"]

    def test_metrics_in_plausible_ranges(self, cl4srec_result):
        for key, value in cl4srec_result.metrics.items():
            assert 0.0 <= value <= 1.0, key

    def test_hr_monotone_in_k(self, cl4srec_result):
        assert (
            cl4srec_result["HR@5"]
            <= cl4srec_result["HR@10"]
            <= cl4srec_result["HR@20"]
        )


class TestReproducibility:
    def test_identical_seeds_identical_metrics(self, dataset):
        def run():
            config = CL4SRecConfig(
                sasrec=SASRecConfig(
                    dim=16,
                    train=TrainConfig(epochs=1, batch_size=64, max_length=12, seed=9),
                ),
                augmentations=("mask",),
                rates=0.5,
                pretrain=TrainConfig(epochs=1, batch_size=64, max_length=12, seed=9),
            )
            model = CL4SRec(dataset, config)
            model.fit(dataset)
            return Evaluator(dataset).evaluate(model, max_users=100).metrics

        a, b = run(), run()
        for key in a:
            assert a[key] == b[key], key


class TestPretrainingTransfers:
    def test_pretrained_encoder_starts_better(self, dataset):
        """After contrastive pre-training alone (no supervised step),
        the encoder should already rank above chance — the
        representation transfers to the recommendation task."""
        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=24,
                train=TrainConfig(epochs=0, batch_size=64, max_length=15, seed=2),
            ),
            augmentations=("crop", "mask", "reorder"),
            rates=0.5,
            pretrain=TrainConfig(epochs=4, batch_size=64, max_length=15, seed=2),
        )
        model = CL4SRec(dataset, config)
        from repro.core.trainer import pretrain_contrastive

        pretrain_contrastive(model, dataset, config.pretrain)
        result = Evaluator(dataset).evaluate(model, max_users=300)
        chance_hr10 = 10.0 / dataset.num_items
        assert result["HR@10"] > chance_hr10
