"""A round's config is a TrainConfig; the loss's τ and λ are the model's."""

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.obs import RunObserver, read_events
from repro.online import FineTuneConfig, IncrementalFineTuner

from .conftest import SCALE

pytestmark = pytest.mark.online


@pytest.mark.parametrize("weight", ["temperature", "cl_weight"])
def test_loss_weights_are_not_round_fields(weight):
    with pytest.raises(TypeError):
        FineTuneConfig(**{weight: 0.2})


def _round(dataset, obs=None, **model_kwargs):
    trainer = build_model("CL4SRec", dataset, SCALE, **model_kwargs)
    tuner = IncrementalFineTuner(
        trainer, FineTuneConfig(epochs=2, batch_size=32, max_length=12), obs=obs
    )
    result = tuner.run_round(dataset, round_index=0, rng=np.random.default_rng(5))
    assert not result.skipped
    assert result.epochs == 2
    return result.losses


def test_a_round_trains_at_the_models_temperature(tiny_dataset):
    assert _round(tiny_dataset, temperature=0.2) != _round(tiny_dataset, temperature=1.0)
    assert _round(tiny_dataset, temperature=0.2) == _round(tiny_dataset, temperature=0.2)


def test_round_events_carry_the_models_cl_weight(tiny_dataset, tmp_path):
    obs = RunObserver.to_directory(str(tmp_path / "obs"))
    _round(tiny_dataset, obs=obs, cl_weight=0.3)
    obs.close()
    events = read_events(str(tmp_path / "obs"))
    weights = [e["cl_weight"] for e in events if e["event"] == "joint_epoch"]
    assert weights == [0.3, 0.3]
