"""Deterministic data-parallel training (repro.train.parallel).

The contract under test (docs/SCALING.md "Training at scale"):

* two same-seed runs at the same worker count produce bit-identical
  weights, losses and obs metrics — in float32, and in a model cast to
  float64;
* ``workers=N`` is a *different* deterministic sample than ``workers=0``
  (shards shuffle independently), so the two intentionally diverge;
* a run killed mid-flight resumes bit-exactly at ``workers=2`` because
  the checkpoint carries every worker's RNG streams;
* a dead worker surfaces as a structured :class:`WorkerFailedError`
  naming the worker and global step, with all shared segments torn down.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import pretrain_contrastive, train_joint
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig, train_next_item_model
from repro.runtime import (
    CheckpointError,
    CheckpointManager,
    FaultInjector,
    TrainingInterrupted,
    TrainingRuntime,
)
from repro.train.parallel import (
    ParallelWorkerPool,
    WorkerFailedError,
    pairwise_sum,
)
from repro.train.stages import PretrainStage

pytestmark = pytest.mark.parallel


def build_cl4srec(dataset, mode="joint", workers=0, dtype=None, epochs=2):
    config = CL4SRecConfig(
        sasrec=SASRecConfig(
            dim=16,
            num_layers=1,
            num_heads=1,
            train=TrainConfig(
                epochs=epochs, batch_size=64, max_length=50, workers=workers
            ),
        ),
        mode=mode,
        pretrain=TrainConfig(epochs=epochs, batch_size=64, workers=workers),
        joint=TrainConfig(epochs=epochs, batch_size=64, workers=workers),
    )
    model = CL4SRec(dataset, config)
    # float64 only through an explicit cast: the loop trains the model
    # in its parameters' precision.
    return model.to_dtype(dtype) if dtype is not None else model


def assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)


def assert_states_differ(state_a, state_b):
    assert any(
        not np.array_equal(state_a[name], state_b[name]) for name in state_a
    )


def make_runtime(directory, faults=None, **kwargs):
    kwargs.setdefault("handle_signals", False)
    return TrainingRuntime(
        CheckpointManager(directory, keep=3), faults=faults, **kwargs
    )


def leaked_segments():
    return set(glob.glob("/dev/shm/repro-train-*")) | set(
        glob.glob("/dev/shm/repro-grad-*")
    )


class TestPairwiseSum:
    def test_single_array_passthrough(self):
        (out,) = [pairwise_sum([np.array([1.0, 2.0])])]
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_matches_plain_sum(self):
        rng = np.random.default_rng(0)
        for count in (2, 3, 4, 5, 8):
            arrays = [rng.normal(size=(3, 2)) for __ in range(count)]
            np.testing.assert_allclose(
                pairwise_sum(arrays), sum(arrays[1:], arrays[0])
            )

    def test_order_is_fixed(self):
        # The tree shape depends only on the list order, so the same
        # inputs always combine identically — the allreduce invariant.
        arrays = [np.array([0.1]), np.array([0.2]), np.array([0.3])]
        first = pairwise_sum(list(arrays))
        second = pairwise_sum(list(arrays))
        assert first.tobytes() == second.tobytes()

    def test_empty_raises(self):
        with pytest.raises((IndexError, ValueError)):
            pairwise_sum([])


class TestBitIdentity:
    """Two same-seed runs at a fixed worker count are bit-identical."""

    def _run_pretrain(self, dataset, **kwargs):
        model = build_cl4srec(dataset, mode="pretrain_finetune", **kwargs)
        history = pretrain_contrastive(
            model, dataset, model.cl_config.pretrain, rng=model._rng
        )
        return model.state_dict(), list(history.losses)

    def test_pretrain_workers2_float64(self, tiny_dataset):
        state_a, losses_a = self._run_pretrain(
            tiny_dataset, workers=2, dtype="float64"
        )
        state_b, losses_b = self._run_pretrain(
            tiny_dataset, workers=2, dtype="float64"
        )
        assert losses_a == losses_b
        assert all(np.isfinite(losses_a))
        assert_states_equal(state_a, state_b)
        assert next(iter(state_a.values())).dtype == np.float64

    def test_pretrain_workers2_float32(self, tiny_dataset):
        state_a, losses_a = self._run_pretrain(tiny_dataset, workers=2)
        state_b, losses_b = self._run_pretrain(tiny_dataset, workers=2)
        assert losses_a == losses_b
        assert_states_equal(state_a, state_b)
        assert next(iter(state_a.values())).dtype == np.float32

    def test_joint_workers2(self, tiny_dataset):
        runs = []
        for __ in range(2):
            model = build_cl4srec(tiny_dataset, workers=2)
            losses = train_joint(
                model, tiny_dataset, model.cl_config.joint, rng=model._rng
            )
            runs.append((model.state_dict(), [float(v) for v in losses]))
        assert runs[0][1] == runs[1][1]
        assert_states_equal(runs[0][0], runs[1][0])

    def test_next_item_workers2(self, tiny_dataset):
        runs = []
        for __ in range(2):
            config = SASRecConfig(
                dim=16, num_layers=1, num_heads=1,
                train=TrainConfig(epochs=2, batch_size=64, max_length=50, workers=2),
            )
            model = SASRec(tiny_dataset, config)
            history = train_next_item_model(
                model, tiny_dataset, config.train, rng=np.random.default_rng(7)
            )
            runs.append((model.state_dict(), list(history.losses)))
        assert runs[0][1] == runs[1][1]
        assert all(np.isfinite(runs[0][1]))
        assert_states_equal(runs[0][0], runs[1][0])

    @pytest.mark.parametrize("name", ["BPR-MF", "NCF", "FPMC", "Caser", "BERT4Rec"])
    def test_baseline_stages_workers2(self, tiny_dataset, name):
        """The row-table and Cloze stages shard their rows like the
        sequence loaders, so ``--workers 2`` trains them bit-identically."""
        scale = ExperimentScale(epochs=2, dim=16, batch_size=32, max_length=12)
        runs = []
        for __ in range(2):
            model = build_model(name, tiny_dataset, scale)
            history = model.fit(tiny_dataset, workers=2)
            runs.append((model.state_dict(), list(history.losses)))
        assert runs[0][1] == runs[1][1]
        assert all(np.isfinite(runs[0][1]))
        assert_states_equal(runs[0][0], runs[1][0])

    def test_worker_counts_diverge_by_design(self, tiny_dataset):
        """workers=N shuffles each shard independently, so the sample
        order — and therefore the trained weights — intentionally
        differ from workers=0 and from other worker counts.  This is
        the documented contract, not an accident: determinism holds at
        a *fixed* worker count."""
        state_serial, __ = self._run_pretrain(tiny_dataset, workers=0)
        state_two, __ = self._run_pretrain(tiny_dataset, workers=2)
        state_three, __ = self._run_pretrain(tiny_dataset, workers=3)
        assert_states_differ(state_serial, state_two)
        assert_states_differ(state_two, state_three)

    def test_workers_zero_forks_nothing(self, tiny_dataset, monkeypatch):
        """workers=0 (the config default) runs the same loop in-process:
        no child process, no shared-memory segment."""
        import multiprocessing

        from repro.core import shm

        def no_segments(*args, **kwargs):
            raise AssertionError("workers=0 created a shared segment")

        monkeypatch.setattr(shm.SharedArrays, "create", no_segments)
        before = leaked_segments()
        assert TrainConfig().workers == 0
        model = build_cl4srec(tiny_dataset, mode="joint", workers=0, epochs=1)
        train_joint(model, tiny_dataset, model.cl_config.joint, rng=model._rng)
        assert multiprocessing.active_children() == []
        assert leaked_segments() <= before


@pytest.mark.fault_injection
class TestResume:
    def _assert_bit_exact(self, dataset, directory, regime):
        def run(runtime=None):
            model = build_cl4srec(dataset, workers=2, epochs=4)
            if regime == "joint":
                config, train = model.cl_config.joint, train_joint
            elif regime == "pretrain":
                config, train = model.cl_config.pretrain, pretrain_contrastive
            else:
                config, train = model.cl_config.sasrec.train, train_next_item_model
            history = train(model, dataset, config, rng=model._rng, runtime=runtime)
            losses = history if regime == "joint" else history.losses
            return [float(v) for v in losses], model.state_dict()

        losses_straight, state_straight = run()
        with pytest.raises(TrainingInterrupted):
            run(make_runtime(directory, faults=FaultInjector().preempt(at=2)))
        runtime = make_runtime(directory)
        losses_resumed, state_resumed = run(runtime)

        assert runtime.resumed_from is not None
        assert losses_resumed == losses_straight
        assert_states_equal(state_straight, state_resumed)

    def test_kill_and_resume_is_bit_exact_workers2(self, tiny_dataset, tmp_path):
        self._assert_bit_exact(tiny_dataset, tmp_path, "joint")

    @pytest.mark.parametrize("regime", ["pretrain", "next_item"])
    def test_kill_and_resume_is_bit_exact_workers2_regimes(
        self, tiny_dataset, tmp_path, regime
    ):
        self._assert_bit_exact(tiny_dataset, tmp_path, regime)

    def test_resume_with_wrong_worker_count_raises(self, tiny_dataset, tmp_path):
        killed = build_cl4srec(tiny_dataset, workers=2, epochs=4)
        with pytest.raises(TrainingInterrupted):
            train_joint(
                killed,
                tiny_dataset,
                killed.cl_config.joint,
                rng=killed._rng,
                runtime=make_runtime(
                    tmp_path, faults=FaultInjector().preempt(at=2)
                ),
            )

        mismatched = build_cl4srec(tiny_dataset, workers=3, epochs=4)
        with pytest.raises(CheckpointError, match="worker"):
            train_joint(
                mismatched,
                tiny_dataset,
                mismatched.cl_config.joint,
                rng=mismatched._rng,
                runtime=make_runtime(tmp_path),
            )


@pytest.mark.fault_injection
class TestWorkerFailure:
    def test_killed_worker_raises_structured_error(self, tiny_dataset, tmp_path):
        before = leaked_segments()
        model = build_cl4srec(tiny_dataset, workers=2, epochs=4)
        with pytest.raises(WorkerFailedError) as excinfo:
            train_joint(
                model,
                tiny_dataset,
                model.cl_config.joint,
                rng=model._rng,
                runtime=make_runtime(
                    tmp_path, faults=FaultInjector().kill_worker(at=2, worker=1)
                ),
            )
        error = excinfo.value
        assert error.worker == 1
        assert error.step == 2
        assert "worker 1" in str(error)
        assert "step 2" in str(error)
        # Every shared segment this run created must be unlinked.
        assert leaked_segments() <= before

    def _pool(self, dataset, stage_cls, **kwargs):
        model = build_cl4srec(dataset, mode="pretrain_finetune", workers=2)
        stage = stage_cls(model, dataset, model.cl_config.pretrain)
        return ParallelWorkerPool(
            stage, model._rng, 2, **kwargs
        )

    def test_silent_worker_raises_within_worker_timeout(self, tiny_dataset):
        """The transport's timeout arm through the real pool: a step that
        outlasts ``worker_timeout_s`` is a named error, not a hang."""

        class SleepyStage(PretrainStage):
            def compute(self):
                time.sleep(30.0)

        before = leaked_segments()
        pool = self._pool(tiny_dataset, SleepyStage, worker_timeout_s=1.0)
        try:
            pool.begin_epoch(0)
            started = time.monotonic()
            with pytest.raises(
                WorkerFailedError,
                match="training worker 0 did not reply within 1s at global step 1",
            ) as excinfo:
                pool.step(0)
            assert time.monotonic() - started < 5.0
            assert (excinfo.value.worker, excinfo.value.step) == (0, 1)
        finally:
            pool.close(timeout=0.3)
        assert multiprocessing.active_children() == []
        assert leaked_segments() <= before

    def test_worker_startup_failure_leaves_no_child_and_no_segment(
        self, tiny_dataset
    ):
        class UnopenableStage(PretrainStage):
            def open(self, rng, obs=None, worker_shard=None):
                raise OSError("no loaders today")

        before = leaked_segments()
        with pytest.raises(
            WorkerFailedError, match="training worker 0 failed: no loaders today"
        ) as excinfo:
            self._pool(tiny_dataset, UnopenableStage)
        assert isinstance(excinfo.value.__cause__, OSError)
        assert excinfo.value.step == 0
        assert multiprocessing.active_children() == []
        assert leaked_segments() <= before

    def test_failed_segment_creation_unlinks_the_earlier_ones(
        self, tiny_dataset, monkeypatch
    ):
        """ENOSPC on /dev/shm while the pool is half built: the page
        segment already created goes, and the caller sees the OSError."""
        from repro.train import parallel

        real_create = parallel.SharedArrays.create
        calls = []

        def create(*args, **kwargs):
            calls.append(kwargs.get("name_prefix"))
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return real_create(*args, **kwargs)

        monkeypatch.setattr(parallel.SharedArrays, "create", create)
        before = leaked_segments()
        with pytest.raises(OSError, match="No space left"):
            self._pool(tiny_dataset, PretrainStage)
        assert calls == ["repro-train", "repro-grad"]
        assert leaked_segments() <= before

    def test_no_segments_leak_from_clean_run(self, tiny_dataset):
        before = leaked_segments()
        model = build_cl4srec(tiny_dataset, workers=2, epochs=1)
        train_joint(model, tiny_dataset, model.cl_config.joint, rng=model._rng)
        assert leaked_segments() <= before

    def test_no_resource_tracker_leak_warnings(self):
        """A whole pool lifecycle in a fresh interpreter must not trip the
        shared_memory resource tracker (the classic symptom of attach-side
        unlink bookkeeping), which reports only at interpreter exit."""
        before = leaked_segments()
        result = subprocess.run(
            [sys.executable, "-c", LEAK_CHECK_SCRIPT],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "trained 1 epoch" in result.stdout
        assert "leaked shared_memory" not in result.stderr
        assert "resource_tracker" not in result.stderr
        assert leaked_segments() <= before


LEAK_CHECK_SCRIPT = """
from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import pretrain_contrastive
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig

dataset = SequenceDataset.from_log(
    generate_log(SyntheticConfig(num_users=60, num_items=40, seed=0)),
    name="leakcheck",
)
train = TrainConfig(epochs=1, batch_size=16, workers=2)
model = CL4SRec(dataset, CL4SRecConfig(
    sasrec=SASRecConfig(dim=8, num_layers=1, num_heads=1, train=train),
    pretrain=train,
))
pretrain_contrastive(model, dataset, model.cl_config.pretrain, rng=model._rng)
print("trained 1 epoch")
"""


class TestObservability:
    @pytest.fixture(scope="class")
    def obs_run(self, tiny_dataset, tmp_path_factory):
        from repro.obs import RunObserver

        directory = tmp_path_factory.mktemp("obs")
        obs = RunObserver.to_directory(
            str(directory), meta={"command": "test", "workers": 2}
        )
        model = build_cl4srec(tiny_dataset, workers=2)
        train_joint(
            model, tiny_dataset, model.cl_config.joint, rng=model._rng, obs=obs
        )
        obs.close()
        return directory

    def test_parallel_worker_events_tag_worker_ids(self, obs_run):
        from repro.obs.events import read_events

        events = read_events(os.path.join(obs_run, "obs.jsonl"))
        worker_events = [
            e for e in events if e.get("event") == "parallel_worker"
        ]
        assert worker_events
        assert {e["worker"] for e in worker_events} == {0, 1}
        for event in worker_events:
            assert event["stage"] == "joint"
            assert event["steps"] >= 1
            assert event["sequences"] >= 1

    def test_epoch_events_carry_worker_count(self, obs_run):
        from repro.obs.events import read_events

        events = read_events(os.path.join(obs_run, "obs.jsonl"))
        epochs = [e for e in events if e.get("event") == "joint_epoch"]
        assert epochs
        assert all(e.get("workers") == 2 for e in epochs)

    def test_metrics_registry_has_parallel_counters(self, obs_run):
        from repro.obs.events import read_events

        events = read_events(os.path.join(obs_run, "obs.jsonl"))
        snapshots = [e for e in events if e.get("event") == "metrics_snapshot"]
        assert snapshots
        registry = snapshots[-1]["registry"]
        assert registry["counters"]["train.grad_bytes_reduced"] > 0
        assert "train.allreduce_seconds" in registry["histograms"]
        assert "train.worker_items_per_sec" in registry["histograms"]

    def test_stats_summary_renders_parallel_section(self, obs_run):
        from repro.obs.stats import summarize_run

        report = summarize_run(str(obs_run))
        assert "[parallel] 2 worker(s)" in report
        assert "items/s" in report


@pytest.mark.online
class TestOnlineFineTuning:
    def test_round_trains_through_parallel_path(self, tiny_dataset, tmp_path):
        from repro.online.finetune import FineTuneConfig, IncrementalFineTuner

        results = []
        for __ in range(2):
            model = build_cl4srec(tiny_dataset, workers=0, epochs=1)
            tuner = IncrementalFineTuner(
                model,
                FineTuneConfig(epochs=1, workers=2),
            )
            result = tuner.run_round(
                tiny_dataset, round_index=0, rng=np.random.default_rng(3)
            )
            assert not result.skipped
            assert result.epochs == 1
            assert all(np.isfinite(result.losses))
            results.append((model.state_dict(), result.losses))
        assert results[0][1] == results[1][1]
        assert_states_equal(results[0][0], results[1][0])
