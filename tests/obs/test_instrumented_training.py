"""The instrumented loops: every stage emits its events and metrics."""

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import pretrain_contrastive, train_joint
from repro.eval.evaluator import Evaluator
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig, train_next_item_model
from repro.obs import RunObserver, read_events
from repro.runtime import CheckpointManager, TrainingRuntime
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


def cl4srec(dataset, mode="joint", epochs=2):
    return CL4SRec(
        dataset,
        CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=epochs, batch_size=32, max_length=12, seed=0),
            ),
            augmentations=("mask",),
            rates=0.5,
            mode=mode,
            pretrain=TrainConfig(epochs=epochs, batch_size=32, max_length=12, seed=0),
            joint=TrainConfig(epochs=epochs, batch_size=32, max_length=12, seed=0),
        ),
    )


def events_of(events, name):
    return [e for e in events if e["event"] == name]


class TestSupervisedLoop:
    def test_train_epoch_events(self, dataset, tmp_path):
        model = SASRec(
            dataset,
            SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=2, batch_size=32, max_length=12, seed=0),
            ),
        )
        with RunObserver.to_directory(str(tmp_path)) as obs:
            history = train_next_item_model(model, dataset, model.config.train, obs=obs)
            counters = obs.registry.counter_values()
        epochs = events_of(read_events(str(tmp_path)), "train_epoch")
        assert len(epochs) == 2
        for i, event in enumerate(epochs):
            assert event["stage"] == "supervised"
            assert event["epoch"] == i
            assert event["loss"] == pytest.approx(history.losses[i])
            assert event["grad_norm"] > 0
            assert event["items_per_sec"] > 0
            assert event["epoch_seconds"] > 0
            assert event["lr"] > 0
        assert counters["train_epochs"] == 2
        assert counters["train_batches"] > 0
        assert counters["train_sequences"] > 0


class TestContrastiveLoops:
    def test_pretrain_epoch_events(self, dataset, tmp_path):
        model = cl4srec(dataset, mode="pretrain_finetune")
        with RunObserver.to_directory(str(tmp_path)) as obs:
            pretrain_contrastive(model, dataset, model.cl_config.pretrain, obs=obs)
        epochs = events_of(read_events(str(tmp_path)), "pretrain_epoch")
        assert len(epochs) == 2
        assert epochs[0]["stage"] == "pretrain"
        assert 0.0 <= epochs[0]["accuracy"] <= 1.0
        assert epochs[0]["loss"] > 0

    def test_joint_epoch_events_decompose_loss(self, dataset, tmp_path):
        model = cl4srec(dataset, mode="joint")
        with RunObserver.to_directory(str(tmp_path)) as obs:
            losses = train_joint(model, dataset, model.cl_config.joint, obs=obs)
        epochs = events_of(read_events(str(tmp_path)), "joint_epoch")
        assert len(epochs) == 2
        for i, event in enumerate(epochs):
            assert event["stage"] == "joint"
            assert event["loss"] == pytest.approx(losses[i])
            # The recorded decomposition reconstructs the combined loss.
            assert event["rec_loss"] + event["cl_loss"] == pytest.approx(
                event["loss"], rel=1e-6
            )
            assert event["cl_weight"] == model.cl_config.cl_weight


class TestEvaluatorInstrumentation:
    def test_eval_event_and_counters(self, dataset, tmp_path):
        model = cl4srec(dataset, epochs=1)
        train_joint(model, dataset, model.cl_config.joint)
        with RunObserver.to_directory(str(tmp_path)) as obs:
            result = Evaluator(dataset, split="test").evaluate(model, obs=obs)
            counters = obs.registry.counter_values()
            batches = obs.registry.histograms["eval.score_batch_seconds"].count
        event = events_of(read_events(str(tmp_path)), "eval")[0]
        assert event["split"] == "test"
        assert event["num_users"] == counters["eval_users"]
        assert event["candidates_scored"] == counters["eval_candidates_scored"]
        assert event["candidates_scored"] > 0
        assert event["eval_seconds"] >= event["scoring_seconds"] > 0
        for key, value in event["metrics"].items():
            assert value == pytest.approx(result.metrics[key])
        assert counters["eval_runs"] == 1
        assert batches >= 1


class TestRuntimeInstrumentation:
    def test_checkpoint_and_resume_events(self, dataset, tmp_path):
        model = cl4srec(dataset, epochs=1)
        manager = CheckpointManager(str(tmp_path / "ckpt"))

        with RunObserver.to_directory(str(tmp_path / "run1")) as obs:
            runtime = TrainingRuntime(
                manager, checkpoint_every=1, guard=False,
                handle_signals=False, obs=obs,
            )
            train_joint(model, dataset, model.cl_config.joint, runtime=runtime, obs=obs)
            counters = obs.registry.counter_values()
        events = read_events(str(tmp_path / "run1"))
        saves = events_of(events, "checkpoint_saved")
        assert len(saves) >= 1
        assert saves[0]["seconds"] >= 0
        assert counters["checkpoints_written"] == len(saves)
        assert obs.registry.histograms["checkpoint.write_seconds"].count == len(saves)

        # A fresh runtime over the same directory resumes and says so.
        model2 = cl4srec(dataset, epochs=1)
        with RunObserver.to_directory(str(tmp_path / "run2")) as obs2:
            runtime2 = TrainingRuntime(
                manager, checkpoint_every=1, guard=False,
                handle_signals=False, obs=obs2,
            )
            train_joint(
                model2, dataset, model2.cl_config.joint, runtime=runtime2, obs=obs2
            )
        resumes = events_of(read_events(str(tmp_path / "run2")), "resume")
        assert len(resumes) == 1
        assert obs2.registry.counter_values()["resumes"] == 1
