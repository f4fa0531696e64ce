"""Float32 golden regression through a float64 model state.

A model state saved before float32 became the one precision holds
float64 arrays.  ``Module.load_state_dict`` rounds them once into the
float32 parameters, so a model loaded from such a state trains and
evaluates to the same golden numbers as a freshly built one.  These
tests pin that route against the fixtures of
``test_golden_regression.py``, at its 1e-6 tolerance.
"""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig, train_next_item_model
from tests.conftest import make_tiny_dataset
from tests.golden.test_golden_regression import EPOCHS, check_against_golden


@pytest.fixture(scope="module")
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="module")
def float64_loaded_run():
    """Train a SASRec whose parameters came in as a float64 state."""
    dataset = make_tiny_dataset()
    model = SASRec(
        dataset,
        SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=EPOCHS, batch_size=32, max_length=12, seed=0),
        ),
    )
    float64_state = {
        name: value.astype(np.float64) for name, value in model.state_dict().items()
    }
    for param in model.parameters():
        param.data[...] = 0.0
    model.load_state_dict(float64_state)
    for name, param in model.named_parameters():
        assert param.data.dtype == np.float32, f"{name} is {param.data.dtype}"
        assert np.array_equal(param.data, float64_state[name].astype(np.float32))
    history = train_next_item_model(model, dataset, model.config.train)
    return dataset, model, history


class TestFloat32Golden:
    def test_losses_match_fixture(self, float64_loaded_run, update_golden):
        __, __, history = float64_loaded_run
        check_against_golden(
            "sasrec_losses",
            {"losses": [float(x) for x in history.losses[:EPOCHS]]},
            update_golden,
        )

    def test_eval_metrics_match_fixture(self, float64_loaded_run, update_golden):
        dataset, model, __ = float64_loaded_run
        result = Evaluator(dataset, split="test").evaluate(model)
        check_against_golden(
            "sasrec_eval_metrics",
            {key: float(value) for key, value in sorted(result.metrics.items())},
            update_golden,
        )
