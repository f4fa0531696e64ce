"""Bit-exact resume: kill a run, restart it, get the identical result."""

import signal
from functools import partial

import numpy as np
import pytest

from repro.core.trainer import pretrain_contrastive, train_joint
from repro.experiments.config import ExperimentScale
from repro.models.registry import available_models, build_model
from repro.models.training import train_next_item_model
from repro.runtime import (
    CheckpointError,
    CheckpointManager,
    FaultInjector,
    TrainingInterrupted,
    TrainingRuntime,
    capture_rng_states,
    restore_rng_states,
)
from repro.train.loop import run_training

pytestmark = pytest.mark.fault_injection


def make_runtime(directory, faults=None, **kwargs):
    kwargs.setdefault("handle_signals", False)
    return TrainingRuntime(CheckpointManager(directory, keep=3), faults=faults, **kwargs)


def global_step(runtime):
    """The update count the runtime's newest checkpoint holds."""
    __, payload = runtime.manager.load_latest_valid()
    return int(payload["meta/global_step"])


def assert_params_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)


def run_regime(regime, model, dataset, runtime=None):
    """Train one regime; returns its per-epoch series for comparison."""
    if regime == "joint":
        return [
            train_joint(
                model, dataset, model.cl_config.joint, rng=model._rng, runtime=runtime
            )
        ]
    if regime == "pretrain":
        history = pretrain_contrastive(
            model, dataset, model.cl_config.pretrain, rng=model._rng, runtime=runtime
        )
        return [history.losses, history.accuracies]
    history = train_next_item_model(
        model, dataset, model.cl_config.sasrec.train, runtime=runtime
    )
    return [history.losses, history.valid_scores]


def assert_kill_and_resume_is_bit_exact(
    build_model, dataset, directory, regime, pipeline, preempt_at
):
    """Straight-through training vs. killed + resumed training produce
    identical parameters and identical histories — every live generator
    (loop rng, the model's dropout rng and, when vectorized, the
    loaders' child streams) is captured in the checkpoint."""
    mode = "pretrain_finetune" if regime == "pretrain" else "joint"
    build = partial(build_model, mode=mode, pipeline=pipeline)
    straight = build()
    series_straight = run_regime(regime, straight, dataset)

    killed = build()
    with pytest.raises(TrainingInterrupted):
        run_regime(
            regime,
            killed,
            dataset,
            make_runtime(directory, faults=FaultInjector().preempt(at=preempt_at)),
        )

    resumed = build()
    runtime = make_runtime(directory)
    series_resumed = run_regime(regime, resumed, dataset, runtime)

    assert runtime.resumed_from is not None
    assert series_resumed == series_straight
    assert_params_equal(straight, resumed)


@pytest.mark.parametrize(
    "regime, preempt_at", [("joint", 8), ("pretrain", 5), ("next_item", 7)]
)
def test_kill_and_resume_is_bit_exact_vectorized(
    tiny_dataset, build_model, tmp_path, regime, preempt_at
):
    assert_kill_and_resume_is_bit_exact(
        build_model, tiny_dataset, tmp_path, regime, "vectorized", preempt_at
    )


#: Small batches, so every model's epoch has several steps to cut.
RESUME_SCALE = ExperimentScale(epochs=3, dim=16, batch_size=16, max_length=12, seed=3)


@pytest.mark.parametrize(
    "name", [name for name in available_models() if name != "Pop"]
)
def test_every_model_kill_and_resume_is_bit_exact(tiny_dataset, tmp_path, name):
    """Every model but Pop trains its ``stage`` through ``run_training``,
    so every model resumes: killed mid-epoch and resumed, it ends on the
    straight run's parameters and history."""

    def train(directory, faults=None):
        model = build_model(name, tiny_dataset, RESUME_SCALE)
        runtime = make_runtime(directory, faults=faults)
        history = run_training(
            model.stage,
            model,
            tiny_dataset,
            model.config.train,
            rng=model._rng,
            runtime=runtime,
        )
        return model, history, runtime

    straight, history_straight, runtime = train(tmp_path / "straight")
    steps_per_epoch = global_step(runtime) // RESUME_SCALE.epochs
    assert steps_per_epoch >= 2, "need a step inside an epoch to cut at"

    killed = tmp_path / "killed"
    cut = steps_per_epoch + steps_per_epoch // 2  # inside the second epoch
    with pytest.raises(TrainingInterrupted):
        train(killed, FaultInjector().preempt(at=cut))
    resumed, history_resumed, runtime = train(killed)

    assert runtime.resumed_from == 1  # the epoch the interrupt cut into
    assert history_resumed == history_straight
    assert_params_equal(straight, resumed)


def test_checkpoint_with_fewer_rng_streams_raises(tiny_dataset, build_model, tmp_path):
    """A checkpoint one RNG stream short of the run (what a vectorized
    checkpoint from before the loaders' child streams were captured
    looks like) is refused by name, never resumed silently."""
    killed = build_model(pipeline="reference")
    with pytest.raises(TrainingInterrupted):
        run_regime(
            "joint",
            killed,
            tiny_dataset,
            make_runtime(tmp_path, faults=FaultInjector().preempt(at=8)),
        )
    with pytest.raises(CheckpointError, match="RNG states"):
        run_regime(
            "joint",
            build_model(pipeline="vectorized"),
            tiny_dataset,
            make_runtime(tmp_path),
        )


class TestJointResume:
    def test_kill_and_resume_is_bit_exact(self, tiny_dataset, build_model, tmp_path):
        assert_kill_and_resume_is_bit_exact(
            build_model, tiny_dataset, tmp_path, "joint", "reference", preempt_at=8
        )

    def test_corrupt_newest_checkpoint_falls_back_and_finishes(
        self, tiny_dataset, build_model, tmp_path
    ):
        """ISSUE acceptance: kill mid-epoch, corrupt the newest archive,
        and the run still resumes from the previous valid checkpoint."""
        straight = build_model()
        losses_straight = train_joint(
            straight, tiny_dataset, straight.cl_config.joint, rng=straight._rng
        )

        killed = build_model()
        with pytest.raises(TrainingInterrupted):
            train_joint(
                killed,
                tiny_dataset,
                killed.cl_config.joint,
                rng=killed._rng,
                runtime=make_runtime(tmp_path, faults=FaultInjector().preempt(at=5)),
            )

        manager = CheckpointManager(tmp_path, keep=3)
        steps = manager.steps()
        assert len(steps) >= 2, "need an older checkpoint to fall back to"
        FaultInjector.corrupt_file(manager.path_for(steps[-1]), flip_byte_at=128)

        resumed = build_model()
        runtime = TrainingRuntime(manager, handle_signals=False)
        losses_resumed = train_joint(
            resumed, tiny_dataset, resumed.cl_config.joint, rng=resumed._rng, runtime=runtime
        )

        assert runtime.resumed_from == steps[-2]
        assert manager.skipped, "the corrupt newest checkpoint must be recorded"
        assert len(losses_resumed) == resumed.cl_config.joint.epochs
        assert all(np.isfinite(losses_resumed))
        # Epoch-boundary checkpoints + captured RNG state: replaying from
        # the older checkpoint reproduces the straight run exactly.
        assert losses_resumed == losses_straight
        assert_params_equal(straight, resumed)

    def test_float64_checkpoint_resumes_into_float32(
        self, tiny_dataset, build_model, tmp_path
    ):
        """A checkpoint written in float64 (parameters and Adam moments)
        resumes a float32 run: both load rounded once into float32.
        (Bit-exact resume holds between checkpoints of one precision.)"""
        killed = build_model().to_dtype(np.float64)
        with pytest.raises(TrainingInterrupted):
            run_regime(
                "joint",
                killed,
                tiny_dataset,
                make_runtime(tmp_path, faults=FaultInjector().preempt(at=8)),
            )
        manager = CheckpointManager(tmp_path, keep=3)
        with np.load(manager.path_for(manager.latest_step())) as archive:
            written = {key: archive[key] for key in archive.files}
        assert written["optim/m.0"].dtype == np.float64

        loaded = {}

        class Recording(TrainingRuntime):
            def start(self, **bound):
                epoch = super().start(**bound)
                loaded["model"] = bound["model"].state_dict()
                loaded["optim"] = {
                    key: np.array(values, copy=True)
                    for key, values in bound["optimizer"].state_dict().items()
                    if key.startswith(("m.", "v."))
                }
                return epoch

        resumed = build_model()
        runtime = Recording(manager, handle_signals=False)
        (losses,) = run_regime("joint", resumed, tiny_dataset, runtime)
        assert runtime.resumed_from is not None and all(np.isfinite(losses))
        for name, values in loaded["model"].items():
            np.testing.assert_array_equal(
                values, written[f"model/{name}"].astype(np.float32), err_msg=name
            )
        assert loaded["optim"]
        for key, values in loaded["optim"].items():
            assert values.dtype == np.float32, key
            np.testing.assert_array_equal(
                values, written[f"optim/{key}"].astype(np.float32), err_msg=key
            )
        assert {p.data.dtype for p in resumed.parameters()} == {np.dtype(np.float32)}

    def test_resume_after_completion_is_a_no_op(self, tiny_dataset, build_model, tmp_path):
        first = build_model()
        losses = train_joint(
            first,
            tiny_dataset,
            first.cl_config.joint,
            rng=first._rng,
            runtime=make_runtime(tmp_path),
        )

        again = build_model()
        runtime = make_runtime(tmp_path)
        losses_again = train_joint(
            again, tiny_dataset, again.cl_config.joint, rng=again._rng, runtime=runtime
        )
        assert runtime.resumed_from == first.cl_config.joint.epochs
        # No additional epochs ran: the restored history did not grow.
        assert losses_again == losses
        assert_params_equal(first, again)

    def test_resume_false_starts_fresh(self, tiny_dataset, build_model, tmp_path):
        first = build_model()
        train_joint(
            first,
            tiny_dataset,
            first.cl_config.joint,
            rng=first._rng,
            runtime=make_runtime(tmp_path),
        )
        fresh = build_model()
        runtime = make_runtime(tmp_path, resume=False)
        train_joint(
            fresh, tiny_dataset, fresh.cl_config.joint, rng=fresh._rng, runtime=runtime
        )
        assert runtime.resumed_from is None
        assert global_step(runtime) > 0

    def test_checkpoint_from_other_model_raises_checkpoint_error(
        self, tiny_dataset, build_model, tmp_path
    ):
        """Resuming into a differently-shaped model names the directory."""
        from tests.runtime.conftest import tiny_cl4srec_config

        from repro.core.cl4srec import CL4SRec

        small = build_model()
        train_joint(
            small,
            tiny_dataset,
            small.cl_config.joint,
            rng=small._rng,
            runtime=make_runtime(tmp_path),
        )
        config = tiny_cl4srec_config()
        config.sasrec.dim = 32  # incompatible with the dim-16 checkpoints
        big = CL4SRec(tiny_dataset, config)
        with pytest.raises(CheckpointError, match=str(tmp_path)):
            train_joint(
                big,
                tiny_dataset,
                big.cl_config.joint,
                rng=big._rng,
                runtime=make_runtime(tmp_path),
            )

    def test_failed_periodic_write_does_not_kill_training(
        self, tiny_dataset, build_model, tmp_path
    ):
        model = build_model()
        runtime = make_runtime(tmp_path, faults=FaultInjector().fail_write(at=1))
        losses = train_joint(
            model, tiny_dataset, model.cl_config.joint, rng=model._rng, runtime=runtime
        )
        assert len(losses) == model.cl_config.joint.epochs
        assert len(runtime.write_failures) == 1
        assert "injected IO error" in runtime.write_failures[0]
        # Later epochs still checkpointed fine.
        assert CheckpointManager(tmp_path).latest_step() == model.cl_config.joint.epochs


class TestPretrainResume:
    def test_kill_and_resume_is_bit_exact(self, tiny_dataset, build_model, tmp_path):
        assert_kill_and_resume_is_bit_exact(
            build_model, tiny_dataset, tmp_path, "pretrain", "reference", preempt_at=5
        )


class TestNextItemResume:
    def test_kill_and_resume_is_bit_exact(self, tiny_dataset, build_model, tmp_path):
        assert_kill_and_resume_is_bit_exact(
            build_model, tiny_dataset, tmp_path, "next_item", "reference", preempt_at=7
        )

    def test_early_stopping_state_survives_resume(self, tiny_dataset, build_model, tmp_path):
        """A run that already early-stopped must not train further when
        resumed, and must keep its best-validation parameters."""
        config = build_model().cl_config.sasrec.train
        config.eval_every = 1
        config.patience = 1
        config.epochs = 6
        # A frozen model never improves validation HR, so the patience
        # countdown expires deterministically after the second eval.
        config.learning_rate = 1e-12

        first = build_model()
        hist_first = train_next_item_model(
            first, tiny_dataset, config, runtime=make_runtime(tmp_path)
        )
        assert hist_first.stopped_early

        again = build_model()
        runtime = make_runtime(tmp_path)
        hist_again = train_next_item_model(again, tiny_dataset, config, runtime=runtime)
        assert hist_again.stopped_early
        assert hist_again.best_epoch == hist_first.best_epoch
        assert hist_again.losses == hist_first.losses
        assert_params_equal(first, again)


class TestSignals:
    def test_sigint_sets_flag_and_restores_handler(self, tmp_path):
        runtime = TrainingRuntime(CheckpointManager(tmp_path), handle_signals=True)
        previous = signal.getsignal(signal.SIGINT)
        with runtime.session():
            signal.raise_signal(signal.SIGINT)
            assert runtime.interrupted
        assert signal.getsignal(signal.SIGINT) is previous

    def test_interrupt_flag_flushes_checkpoint(self, tiny_dataset, build_model, tmp_path):
        model = build_model()
        runtime = make_runtime(tmp_path)
        runtime.interrupted = True  # as a signal handler would set it
        with pytest.raises(TrainingInterrupted):
            train_joint(
                model, tiny_dataset, model.cl_config.joint, rng=model._rng, runtime=runtime
            )
        # The flush landed: a resume can pick the run back up.
        assert CheckpointManager(tmp_path).load_latest_valid() is not None


class TestRngStateRoundTrip:
    def test_capture_restore(self):
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(2)
        packed = capture_rng_states([rng_a, rng_b])
        expected = (rng_a.random(5), rng_b.random(5))
        restore_rng_states([rng_a, rng_b], packed)
        np.testing.assert_array_equal(rng_a.random(5), expected[0])
        np.testing.assert_array_equal(rng_b.random(5), expected[1])

    def test_spawn_count_round_trips(self):
        """bit_generator.state says nothing about children spawned; a
        fresh generator restored from a checkpoint must still hand out
        the *next* child, not the first one again."""
        rng = np.random.default_rng(1)
        rng.spawn(3)
        packed = capture_rng_states([rng])
        expected = rng.spawn(1)[0].random(4)
        fresh = np.random.default_rng(1)
        restore_rng_states([fresh], packed)
        np.testing.assert_array_equal(fresh.spawn(1)[0].random(4), expected)

    def test_states_without_spawn_count_restore_bit_state_only(self):
        import json

        rng = np.random.default_rng(1)
        packed = np.asarray(json.dumps([rng.bit_generator.state]))
        expected = rng.random(5)
        fresh = np.random.default_rng(9)
        fresh.spawn(2)
        restore_rng_states([fresh], packed)
        np.testing.assert_array_equal(fresh.random(5), expected)
        assert fresh.bit_generator.seed_seq.n_children_spawned == 2

    def test_count_mismatch_raises(self):
        packed = capture_rng_states([np.random.default_rng(0)])
        with pytest.raises(CheckpointError, match="RNG states"):
            restore_rng_states([np.random.default_rng(0), np.random.default_rng(1)], packed)
