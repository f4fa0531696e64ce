"""DivergenceGuard: NaN detection, rollback, lr backoff, retry budget."""

import numpy as np
import pytest

from repro.core.trainer import train_joint
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, LinearDecaySchedule
from repro.runtime import (
    CheckpointManager,
    DivergenceError,
    DivergenceGuard,
    FaultInjector,
    TrainingRuntime,
)


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([1.0, 2.0, 3.0]))


def make_guard(**kwargs):
    model = TinyNet()
    optimizer = Adam(list(model.parameters()), lr=0.1)
    guard = DivergenceGuard(model, optimizer, **kwargs)
    return model, optimizer, guard


class TestDivergenceGuardUnit:
    def test_finite_values_proceed(self):
        __, __, guard = make_guard()
        guard.snapshot()
        assert guard.observe(1.5, 0.3) is True
        assert guard.observe(0.0, None) is True
        assert guard.retries_used == 0

    def test_nan_loss_rolls_back_parameters(self):
        model, __, guard = make_guard()
        guard.snapshot()
        model.w.data[:] = 99.0  # drift after the snapshot
        assert guard.observe(float("nan")) is False
        np.testing.assert_array_equal(model.w.data, [1.0, 2.0, 3.0])

    def test_inf_grad_norm_rolls_back(self):
        model, __, guard = make_guard()
        guard.snapshot()
        model.w.data[:] = 99.0
        assert guard.observe(0.5, float("inf")) is False
        np.testing.assert_array_equal(model.w.data, [1.0, 2.0, 3.0])

    def test_rollback_restores_optimizer_moments(self):
        model, optimizer, guard = make_guard()
        model.w.grad = np.array([1.0, 1.0, 1.0])
        optimizer.step()
        guard.snapshot()
        before = optimizer.state_dict()
        model.w.grad = np.array([2.0, 2.0, 2.0])
        optimizer.step()
        guard.observe(float("nan"))
        after = optimizer.state_dict()
        for name in before:
            if name == "__lr__":
                continue  # deliberately reduced by the backoff
            np.testing.assert_array_equal(np.asarray(before[name]), np.asarray(after[name]))

    def test_lr_backoff_compounds(self):
        __, optimizer, guard = make_guard()
        guard.snapshot()
        guard.observe(float("nan"))
        assert optimizer.lr == pytest.approx(0.05)
        guard.observe(float("nan"))
        assert optimizer.lr == pytest.approx(0.025)

    def test_new_snapshot_resets_retry_budget_not_lr(self):
        __, optimizer, guard = make_guard()
        guard.snapshot()
        guard.observe(float("nan"))
        guard.snapshot()  # next epoch: budget resets, reduced lr snapshotted
        assert guard.retries_used == 0
        guard.observe(float("nan"))  # allowed again
        assert optimizer.lr == pytest.approx(0.025)
        assert guard.total_rollbacks == 2

    def test_retry_budget_exhaustion_raises(self):
        __, __, guard = make_guard()
        guard.snapshot()
        for __ in range(guard.max_retries):
            guard.observe(float("nan"))
        with pytest.raises(DivergenceError, match="diverged"):
            guard.observe(float("nan"))

    def test_nan_before_snapshot_raises(self):
        __, __, guard = make_guard()
        with pytest.raises(DivergenceError, match="before any snapshot"):
            guard.observe(float("nan"))

    def test_schedule_state_rolled_back(self):
        model = TinyNet()
        optimizer = SGD(list(model.parameters()), lr=1.0)
        schedule = LinearDecaySchedule(optimizer, total_steps=10, final_factor=0.0)
        guard = DivergenceGuard(model, optimizer, schedule)
        guard.snapshot()
        schedule.step()
        schedule.step()
        guard.observe(float("nan"))
        assert schedule.state_dict()["step"] == 0
        assert schedule.initial_lr == pytest.approx(0.5)


@pytest.mark.fault_injection
class TestGuardInTrainingLoop:
    def test_injected_nan_is_rolled_back_not_propagated(
        self, tiny_dataset, build_model, tmp_path
    ):
        """ISSUE acceptance: a forced-NaN loss triggers rollback and the
        run completes with finite parameters instead of poisoning them."""
        model = build_model()
        runtime = TrainingRuntime(
            CheckpointManager(tmp_path),
            faults=FaultInjector().nan_loss(at=3),
            handle_signals=False,
        )
        losses = train_joint(
            model, tiny_dataset, model.cl_config.joint, rng=model._rng, runtime=runtime
        )
        assert runtime.guard is not None
        assert runtime.guard.total_rollbacks == 1
        assert len(losses) == model.cl_config.joint.epochs
        assert all(np.isfinite(losses)), "NaN must never reach the history"
        for name, values in model.state_dict().items():
            assert np.all(np.isfinite(values)), f"non-finite parameter {name}"

    def test_repeated_nan_exhausts_budget_and_raises(
        self, tiny_dataset, build_model, tmp_path, monkeypatch
    ):
        model = build_model()
        # Both NaNs land inside the first (2-batch) epoch, so a one-retry
        # budget is exhausted before begin_epoch resets it.
        monkeypatch.setattr(DivergenceGuard, "max_retries", 1)
        faults = FaultInjector().nan_loss(at=1).nan_loss(at=2)
        runtime = TrainingRuntime(
            CheckpointManager(tmp_path),
            faults=faults,
            handle_signals=False,
        )
        with pytest.raises(DivergenceError):
            train_joint(
                model, tiny_dataset, model.cl_config.joint, rng=model._rng, runtime=runtime
            )

    def test_guard_disabled_lets_nan_through(self, tiny_dataset, build_model, tmp_path):
        model = build_model()
        runtime = TrainingRuntime(
            CheckpointManager(tmp_path),
            faults=FaultInjector().nan_loss(at=1),
            guard=False,
            handle_signals=False,
        )
        losses = train_joint(
            model, tiny_dataset, model.cl_config.joint, rng=model._rng, runtime=runtime
        )
        assert not np.isfinite(losses[0])
