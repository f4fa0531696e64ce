"""The single training loop (repro.train.loop) at ``workers=0``."""

import time

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import train_joint
from repro.data.loaders import ContrastiveBatchLoader, NextItemBatchLoader
from repro.data.preprocessing import SequenceDataset
from repro.experiments.config import SMOKE_SCALE
from repro.models.registry import build_model
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig
from repro.train.stages import JointStage, NextItemStage
from tests.conftest import make_tiny_dataset


def test_joint_vectorized_is_timing_independent(monkeypatch):
    """The contrastive side cycles mid-epoch here (fewer contrastive
    than supervised batches), so a prefetch thread on it would run
    past the epoch's last step by a timing-dependent number of draws.
    Slowing the contrastive batch build must not change the run."""
    full = make_tiny_dataset(num_users=400)
    # A 2-item history trains next-item prediction but is too short to
    # augment, so every third user leaves the contrastive side only.
    dataset = SequenceDataset(
        train_sequences=[
            seq[-2:] if user % 3 == 0 else seq
            for user, seq in enumerate(full.train_sequences)
        ],
        valid_targets=full.valid_targets,
        test_targets=full.test_targets,
        num_items=full.num_items,
        name="uneven",
    )
    rng = np.random.default_rng(0)
    supervised = NextItemBatchLoader(dataset, 50, 64, rng)
    contrastive = ContrastiveBatchLoader(dataset, None, 50, 64, rng)
    assert contrastive.num_batches < supervised.num_batches

    def run():
        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16, num_layers=1, num_heads=1,
                train=TrainConfig(batch_size=64, max_length=50),
            ),
            joint=TrainConfig(epochs=2, batch_size=64, pipeline="vectorized"),
        )
        model = CL4SRec(dataset, config)
        losses = train_joint(model, dataset, config.joint, rng=model._rng)
        return losses, model.state_dict()

    losses_fast, state_fast = run()

    build = ContrastiveBatchLoader._build

    def slow_build(self, users):
        time.sleep(0.15)
        return build(self, users)

    monkeypatch.setattr(ContrastiveBatchLoader, "_build", slow_build)
    losses_slow, state_slow = run()

    assert losses_slow == losses_fast
    for name in state_fast:
        np.testing.assert_array_equal(state_fast[name], state_slow[name], err_msg=name)


@pytest.mark.parametrize("name", ["BPR-MF", "NCF", "FPMC", "Caser", "BERT4Rec"])
def test_one_path_models_refuse_the_vectorized_pipeline(name, tiny_dataset):
    """Row-table and Cloze stages have one batch path; asking for the
    other one is an error, not a silent fall-back."""
    model = build_model(name, tiny_dataset, SMOKE_SCALE)
    with pytest.raises(ValueError, match=f"{name} has one batch path"):
        model.fit(tiny_dataset, pipeline="vectorized")


@pytest.mark.parametrize("stage", [NextItemStage, JointStage])
def test_next_item_loss_is_scaled_by_the_batch_weight(stage, tiny_dataset):
    """The model's ``sequence_loss`` is a plain per-batch mean; the stage
    scales it by ``batch.weight``, so the length-bucketed batches of an
    epoch weigh every real position alike."""
    config = TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0)
    sasrec = SASRecConfig(dim=16, train=config)
    if stage is JointStage:
        model = CL4SRec(tiny_dataset, CL4SRecConfig(sasrec=sasrec, joint=config))
    else:
        model = SASRec(tiny_dataset, sasrec)
    seen = []
    sequence_loss = model.sequence_loss

    def recording_loss(batch):
        loss = sequence_loss(batch)
        seen.append((batch.weight, loss.item()))
        return loss

    model.sequence_loss = recording_loss
    run = stage(model, tiny_dataset, config)
    run.open(np.random.default_rng(0))
    run.begin_epoch()
    for __ in range(run.steps_per_epoch):
        loss, __, metrics = run.step()
        weight, mean = seen[-1]
        rec = metrics.get("rec_loss", loss.item())
        assert rec == pytest.approx(weight * mean, rel=1e-6)
    weights = [weight for weight, __ in seen]
    assert len(set(weights)) > 1
    assert np.mean(weights) == pytest.approx(1.0)
