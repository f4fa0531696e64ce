"""Opt-in scoped profiling: off by default, cheap when off."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.obs import profiling
from repro.obs.profiling import _NULL_SCOPE, profile_scope, profiled


@pytest.fixture(autouse=True)
def reset_profiling_state():
    profiling.disable()
    yield
    profiling.disable()


class TestDisabledByDefault:
    def test_not_active(self):
        assert profiling.active() is None
        assert not profiling.enabled()

    def test_profile_scope_returns_shared_null_singleton(self):
        # The hot-path contract: no allocation when profiling is off.
        assert profile_scope("nn.attention") is _NULL_SCOPE
        assert profile_scope("anything.else") is _NULL_SCOPE

    def test_null_scope_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with profile_scope("x"):
                raise RuntimeError("boom")

    def test_instrumented_matmul_records_nothing(self):
        a = Tensor(np.ones((4, 4)))
        a.matmul(a)
        assert profiling.active() is None


class TestEnabled:
    def test_enable_disable_round_trip(self):
        profiler = profiling.enable()
        assert profiling.active() is profiler
        profiling.disable()
        assert profiling.active() is None

    def test_scope_records_histogram_and_counter(self):
        profiler = profiling.enable()
        with profile_scope("stage"):
            pass
        with profile_scope("stage"):
            pass
        registry = profiler.registry
        assert registry.histograms["profile/stage"].count == 2
        assert registry.counter_values()["profile_calls/stage"] == 2

    def test_instrumented_nn_paths_show_up(self):
        profiler = profiling.enable()
        a = Tensor(np.ones((4, 4)))
        a.matmul(a)
        assert profiler.summary()["tensor.matmul"]["calls"] == 1

    def test_summary_shape(self):
        profiler = profiling.enable()
        with profile_scope("s"):
            pass
        summary = profiler.summary()["s"]
        assert set(summary) == {"calls", "total_ms", "mean_ms", "max_ms"}
        assert summary["calls"] == 1

    def test_profiled_context_restores_previous_state(self):
        outer = profiling.enable()
        with profiled() as inner:
            assert profiling.active() is inner
            assert inner is not outer
        assert profiling.active() is outer

    def test_profiled_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiled():
                raise RuntimeError("boom")
        assert profiling.active() is None


class TestEnvVar:
    def test_truthy_env_enables_at_import(self, monkeypatch):
        monkeypatch.setenv(profiling.PROFILE_ENV_VAR, "1")
        profiling._enable_from_env()
        assert profiling.enabled()

    def test_falsy_env_stays_off(self, monkeypatch):
        monkeypatch.setenv(profiling.PROFILE_ENV_VAR, "0")
        profiling._enable_from_env()
        assert not profiling.enabled()
