"""Golden regression tests: pin exact training/eval numbers.

The fixtures under ``tests/golden/`` record the first-3-epoch losses of
a fixed-seed SASRec run, a fixed-seed CL4SRec joint run, and the eval
metric row of the trained SASRec model.  Any refactor that changes the
numerics — intentionally or not — trips these at 1e-6.

The runs are float32, the one precision (``repro.nn.precision``), and
bit-deterministic under a fixed seed.  The fixtures were last
regenerated when dropout masks moved to the kept shape, next-item
batches became length-bucketed and the embedding backward became a
sorted ``np.add.reduceat`` (docs/PERFORMANCE.md, "Draw, gather and
batch only what a step keeps").

To accept an intentional numeric change, regenerate the fixtures::

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden

and commit the updated JSON alongside the change that caused it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import train_joint
from repro.eval.evaluator import Evaluator
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig, train_next_item_model
from tests.conftest import make_tiny_dataset

GOLDEN_DIR = Path(__file__).parent
TOLERANCE = 1e-6
EPOCHS = 3


@pytest.fixture(scope="module")
def update_golden(request):
    return request.config.getoption("--update-golden")


def check_against_golden(name: str, computed: dict, update: bool) -> None:
    """Compare ``computed`` against ``tests/golden/<name>.json``.

    With ``--update-golden`` the fixture is (re)written and the test
    passes; otherwise every leaf float must match within 1e-6.
    """
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        path.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} missing — run pytest with --update-golden"
        )
    expected = json.loads(path.read_text())
    assert set(expected) == set(computed), (
        f"{name}: key sets differ (expected {sorted(expected)}, "
        f"got {sorted(computed)})"
    )
    for key, want in expected.items():
        got = computed[key]
        if isinstance(want, list):
            assert len(want) == len(got), f"{name}.{key}: length changed"
            pairs = list(zip(want, got))
        else:
            pairs = [(want, got)]
        for index, (w, g) in enumerate(pairs):
            assert abs(w - g) <= TOLERANCE, (
                f"{name}.{key}[{index}] drifted: expected {w!r}, got {g!r} "
                f"(|diff| = {abs(w - g):.3e} > {TOLERANCE})"
            )


@pytest.fixture(scope="module")
def golden_dataset():
    return make_tiny_dataset()


def train_sasrec(dataset):
    model = SASRec(
        dataset,
        SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=EPOCHS, batch_size=32, max_length=12, seed=0),
        ),
    )
    history = train_next_item_model(model, dataset, model.config.train)
    return model, history


@pytest.fixture(scope="module")
def trained_sasrec(golden_dataset):
    return train_sasrec(golden_dataset)


class TestGoldenRegression:
    def test_params_are_float32(self, trained_sasrec):
        model, __ = trained_sasrec
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}

    def test_bit_deterministic_under_fixed_seed(self, golden_dataset, trained_sasrec):
        first_model, first_history = trained_sasrec
        second_model, second_history = train_sasrec(golden_dataset)
        assert first_history.losses == second_history.losses
        for (name, a), (__, b) in zip(
            first_model.named_parameters(), second_model.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), f"{name} differs between runs"

    def test_sasrec_first_epoch_losses(self, golden_dataset, trained_sasrec, update_golden):
        __, history = trained_sasrec
        check_against_golden(
            "sasrec_losses",
            {"losses": [float(x) for x in history.losses[:EPOCHS]]},
            update_golden,
        )

    def test_cl4srec_joint_first_epoch_losses(self, golden_dataset, update_golden):
        model = CL4SRec(
            golden_dataset,
            CL4SRecConfig(
                sasrec=SASRecConfig(
                    dim=16,
                    train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
                ),
                augmentations=("crop", "mask", "reorder"),
                rates=0.5,
                mode="joint",
                joint=TrainConfig(epochs=EPOCHS, batch_size=32, max_length=12, seed=0),
            ),
        )
        losses = train_joint(model, golden_dataset, model.cl_config.joint)
        check_against_golden(
            "cl4srec_joint_losses",
            {"losses": [float(x) for x in losses[:EPOCHS]]},
            update_golden,
        )

    def test_sasrec_losses_vectorized_pipeline(self, golden_dataset, update_golden):
        # A separate fixture, *added alongside* the reference one: the
        # vectorized pipeline draws shuffles/negatives from a child rng
        # stream, so its numbers differ from the reference path by
        # design — but must themselves stay pinned across refactors.
        model = SASRec(
            golden_dataset,
            SASRecConfig(
                dim=16,
                train=TrainConfig(
                    epochs=EPOCHS,
                    batch_size=32,
                    max_length=12,
                    seed=0,
                    pipeline="vectorized",
                ),
            ),
        )
        history = train_next_item_model(model, golden_dataset, model.config.train)
        check_against_golden(
            "sasrec_losses_vectorized",
            {"losses": [float(x) for x in history.losses[:EPOCHS]]},
            update_golden,
        )

    def test_cl4srec_joint_losses_vectorized_pipeline(
        self, golden_dataset, update_golden
    ):
        model = CL4SRec(
            golden_dataset,
            CL4SRecConfig(
                sasrec=SASRecConfig(
                    dim=16,
                    train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
                ),
                augmentations=("crop", "mask", "reorder"),
                rates=0.5,
                mode="joint",
                joint=TrainConfig(
                    epochs=EPOCHS,
                    batch_size=32,
                    max_length=12,
                    seed=0,
                    pipeline="vectorized",
                ),
            ),
        )
        losses = train_joint(model, golden_dataset, model.cl_config.joint)
        check_against_golden(
            "cl4srec_joint_losses_vectorized",
            {"losses": [float(x) for x in losses[:EPOCHS]]},
            update_golden,
        )

    def test_sasrec_eval_metric_row(self, golden_dataset, trained_sasrec, update_golden):
        model, __ = trained_sasrec
        result = Evaluator(golden_dataset, split="test").evaluate(model)
        check_against_golden(
            "sasrec_eval_metrics",
            {key: float(value) for key, value in sorted(result.metrics.items())},
            update_golden,
        )
