"""A round's config is a TrainConfig; the loss's τ and λ are the model's."""

import numpy as np
import pytest

from repro.data.preprocessing import SequenceDataset
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


def _tuner(dataset, **fields):
    trainer = build_model("CL4SRec", dataset, SCALE)
    config = FineTuneConfig(epochs=1, batch_size=32, max_length=12, **fields)
    return IncrementalFineTuner(trainer, config)


def test_a_refused_config_field_raises_out_of_the_round(tiny_dataset):
    """Only "nothing to train on" becomes a skipped round; a stage that
    refuses its config is a fault and surfaces."""
    tuner = _tuner(tiny_dataset, eval_every=1)
    with pytest.raises(ValueError, match="eval_every"):
        tuner.run_round(tiny_dataset, round_index=0, rng=np.random.default_rng(5))


def test_a_buffer_too_small_for_in_batch_negatives_is_nothing_to_train_on(
    tiny_dataset,
):
    """A contrastive batch needs a second user for its in-batch
    negatives: a buffer with one trainable sequence refuses the round
    instead of running epochs of no steps."""
    buffered = SequenceDataset(
        train_sequences=[tiny_dataset.train_sequences[0]],
        valid_targets=[None],
        test_targets=[None],
        num_items=tiny_dataset.num_items,
    )
    result = _tuner(tiny_dataset).run_round(
        buffered, round_index=0, rng=np.random.default_rng(5)
    )
    assert result.skipped
    assert "in-batch negatives" in result.reason
    assert result.losses == []
