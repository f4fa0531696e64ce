"""Optimizers, schedules and gradient clipping."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, GradientClipper, LinearDecaySchedule


def make_param(values):
    p = Parameter(np.asarray(values, dtype=np.float64))
    return p


class TestSGD:
    def test_basic_step(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_none_grad_skipped(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.0)


class TestAdam:
    def test_first_step_matches_reference(self):
        """After one step, Adam moves by ~lr in the gradient direction
        (bias correction makes m_hat/sqrt(v_hat) = sign(g))."""
        p = make_param([1.0])
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.0])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.01], atol=1e-6)

    def test_matches_manual_two_steps(self):
        p = make_param([0.5])
        opt = Adam([p], lr=0.1)
        grads = [np.array([0.4]), np.array([-0.2])]
        # Manual reference implementation.
        m = v = 0.0
        x = 0.5
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g[0]
            v = 0.999 * v + 0.001 * g[0] ** 2
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            x -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
            p.grad = g
            opt.step()
        np.testing.assert_allclose(p.data, [x], atol=1e-12)

    def test_weight_decay_applied(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = Adam([p], lr=0.3)
        for __ in range(200):
            p.grad = 2.0 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_zero_grad_clears(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None


class TestLinearDecaySchedule:
    def test_lr_reaches_final_factor(self):
        p = make_param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearDecaySchedule(opt, total_steps=10, final_factor=0.1)
        for __ in range(10):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.1)

    def test_lr_halfway(self):
        p = make_param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearDecaySchedule(opt, total_steps=10, final_factor=0.0)
        for __ in range(5):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.5)

    def test_lr_clamps_after_total(self):
        p = make_param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearDecaySchedule(opt, total_steps=4, final_factor=0.25)
        for __ in range(20):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.25)

    def test_validation(self):
        p = make_param([1.0])
        opt = Adam([p], lr=1.0)
        with pytest.raises(ValueError):
            LinearDecaySchedule(opt, total_steps=0)
        with pytest.raises(ValueError):
            LinearDecaySchedule(opt, total_steps=5, final_factor=1.5)


class TestGradientClipper:
    def test_no_clip_below_threshold(self):
        p = make_param([1.0])
        p.grad = np.array([0.5])
        norm = GradientClipper([p], max_norm=1.0).clip()
        np.testing.assert_allclose(norm, 0.5)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_clips_above_threshold(self):
        a = make_param([1.0])
        b = make_param([1.0])
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])  # global norm 5
        clipper = GradientClipper([a, b], max_norm=1.0)
        norm = clipper.clip()
        np.testing.assert_allclose(norm, 5.0)
        np.testing.assert_allclose(a.grad, [0.6])
        np.testing.assert_allclose(b.grad, [0.8])

    def test_none_grads_tolerated(self):
        p = make_param([1.0])
        assert GradientClipper([p], max_norm=1.0).clip() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientClipper([make_param([1.0])], max_norm=0.0)


class TestOptimizerStateDict:
    """Public persistence API — no private buffer access required."""

    def drive(self, opt, param, grads):
        for g in grads:
            param.grad = np.asarray(g, dtype=np.float64)
            opt.step()

    def test_adam_round_trip_continues_identically(self):
        grads = [[0.4], [-0.2], [0.7]]
        straight_p = make_param([0.5])
        straight = Adam([straight_p], lr=0.1)
        self.drive(straight, straight_p, grads * 2)

        first_p = make_param([0.5])
        first = Adam([first_p], lr=0.1)
        self.drive(first, first_p, grads)
        state = first.state_dict()

        resumed_p = make_param(first_p.data.copy())
        resumed = Adam([resumed_p], lr=0.9)  # wrong lr, restored below
        resumed.load_state_dict(state)
        assert resumed.lr == 0.1
        self.drive(resumed, resumed_p, grads)
        np.testing.assert_allclose(resumed_p.data, straight_p.data, atol=1e-15)

    def test_kind_recorded(self):
        p = make_param([1.0])
        assert str(Adam([p], lr=0.1).state_dict()["__kind__"]) == "adam"
        assert str(SGD([p], lr=0.1).state_dict()["__kind__"]) == "sgd"

    def test_kind_mismatch_rejected(self):
        p = make_param([1.0])
        state = SGD([p], lr=0.1).state_dict()
        with pytest.raises(ValueError, match="sgd"):
            Adam([make_param([1.0])], lr=0.1).load_state_dict(state)

    def test_state_is_a_copy_safe_snapshot(self):
        """Checkpointing must not alias live Adam moment buffers."""
        p = make_param([1.0])
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        state = {k: np.array(v, copy=True) for k, v in opt.state_dict().items()}
        p.grad = np.array([5.0])
        opt.step()
        fresh = Adam([make_param([1.0])], lr=0.1)
        fresh.load_state_dict(state)
        assert float(fresh.state_dict()["__step__"]) == 1.0


class TestScheduleStateDict:
    def test_round_trip_restores_decayed_lr(self):
        p = make_param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearDecaySchedule(opt, total_steps=10, final_factor=0.0)
        for __ in range(4):
            sched.step()
        state = sched.state_dict()
        decayed_lr = opt.lr

        other_p = make_param([1.0])
        other_opt = Adam([other_p], lr=1.0)
        other = LinearDecaySchedule(other_opt, total_steps=10, final_factor=0.0)
        other.load_state_dict(state)
        assert int(other.state_dict()["step"]) == 4
        assert other_opt.lr == pytest.approx(decayed_lr)
