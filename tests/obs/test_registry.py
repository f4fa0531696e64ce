"""Counters, gauges and histograms — the shared metrics primitives."""

import math

import numpy as np
import pytest

import repro.obs.registry as registry_module
from repro.obs.registry import MAX_SAMPLES, Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.metrics import ServingMetrics


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="counters only go up"):
            Counter().increment(-1)


class TestGauge:
    def test_tracks_last_value(self):
        gauge = Gauge()
        gauge.set(1e-3)
        gauge.set(5e-4)
        assert gauge.value == 5e-4


class TestHistogram:
    def test_exact_count_mean_max(self):
        hist = Histogram()
        for value in (0.1, 0.2, 0.3):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean_seconds == pytest.approx(0.2)
        assert hist.max_seconds == pytest.approx(0.3)

    def test_percentiles_of_known_distribution(self):
        hist = Histogram()
        for value in np.linspace(0.0, 1.0, 101):
            hist.record(float(value))
        assert hist.percentile(50) == pytest.approx(0.5, abs=1e-9)
        assert hist.percentile(99) == pytest.approx(0.99, abs=1e-9)

    # ------------------------------------------------------------------
    # NaN-free guarantees on degenerate inputs (the PR's edge-case fix)
    # ------------------------------------------------------------------
    def test_empty_histogram_is_nan_free(self):
        hist = Histogram()
        assert hist.percentile(50) == 0.0
        assert hist.mean_seconds == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        for key, value in summary.items():
            assert not math.isnan(value), f"{key} is NaN on an empty histogram"
            assert value == 0.0

    def test_single_sample_reservoir_is_nan_free(self):
        hist = Histogram()
        hist.record(0.25)
        for q in (50, 90, 99):
            assert hist.percentile(q) == pytest.approx(0.25)
        summary = hist.summary()
        for key, value in summary.items():
            assert not math.isnan(value), f"{key} is NaN on a 1-sample reservoir"
        assert summary["p50_ms"] == pytest.approx(250.0)

    def test_nan_sample_is_dropped(self):
        hist = Histogram()
        hist.record(0.1)
        hist.record(float("nan"))
        assert hist.count == 1
        assert not math.isnan(hist.percentile(50))
        assert hist.percentile(50) == pytest.approx(0.1)

    def test_reservoir_caps_memory_but_keeps_exact_count(self):
        hist = Histogram()
        hist.max_samples = 16  # force reservoir replacement
        for value in np.linspace(0.0, 1.0, 1000):
            hist.record(float(value))
        assert hist.count == 1000
        assert len(hist._samples) == 16
        assert hist.max_seconds == pytest.approx(1.0)
        # Percentiles stay inside the observed range.
        assert 0.0 <= hist.percentile(50) <= 1.0

    def test_default_cap(self):
        assert Histogram().max_samples == MAX_SAMPLES


class TestMetricsRegistry:
    def test_instruments_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.increment("batches", 3)
        registry.gauge("lr").set(1e-3)
        registry.observe("epoch_seconds", 0.5)
        assert registry.counter_values() == {"batches": 3}
        assert registry.gauges["lr"].value == 1e-3
        assert registry.histograms["epoch_seconds"].count == 1

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_timer_records_wall_time(self):
        registry = MetricsRegistry()
        with registry.timer("block"):
            pass
        hist = registry.histograms["block"]
        assert hist.count == 1
        assert hist.max_seconds >= 0.0

    def test_timer_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("block"):
                raise RuntimeError("boom")
        assert registry.histograms["block"].count == 1

    def test_timer_records_the_duration_of_a_raising_body_and_reraises(
        self, monkeypatch
    ):
        clock = iter([10.0, 10.25])
        monkeypatch.setattr(registry_module.time, "perf_counter", lambda: next(clock))
        registry = MetricsRegistry()
        error = KeyError("boom")
        with pytest.raises(KeyError) as excinfo:
            with registry.timer("block"):
                raise error
        assert excinfo.value is error
        assert registry.histograms["block"].total_seconds == 0.25

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.increment("n")
        registry.gauge("g").set(2.0)
        registry.observe("h", 0.1)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"] == {"n": 1}
        assert snapshot["gauges"] == {"g": 2.0}
        assert set(snapshot["histograms"]["h"]) == {
            "count", "mean_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms",
        }


class TestSeededReservoirs:
    """Every histogram's reservoir RNG derives from its seed plus the
    instrument name, so exported percentiles are the same run to run
    once a histogram overflows its sample cap."""

    def test_overflowing_reservoir_is_deterministic_per_seed(self):
        summaries = []
        for __ in range(2):
            hist = Histogram(seed=7)
            hist.max_samples = 16  # force reservoir replacement
            for value in np.random.default_rng(1).normal(1.0, 0.1, size=2000):
                hist.record(value)
            summaries.append(hist.summary())
        assert summaries[0] == summaries[1]

    def test_registry_seed_threads_into_every_histogram(self):
        snapshots = []
        for __ in range(2):
            registry = MetricsRegistry()
            registry.histograms["latency"] = hist = Histogram(
                seed=registry._histogram_seed("latency")
            )
            hist.max_samples = 16  # force reservoir replacement
            for value in np.random.default_rng(99).exponential(0.01, size=2000):
                registry.observe("latency", value)
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_distinct_names_get_distinct_reservoir_seeds(self):
        registry = MetricsRegistry()
        assert registry._histogram_seed("a") != registry._histogram_seed("b")

    def test_serving_metrics_p99_deterministic_run_to_run(self):
        exports = []
        for __ in range(2):
            metrics = ServingMetrics()
            hist = metrics.stage("total")
            hist.max_samples = 32  # force reservoir replacement
            for value in np.random.default_rng(2).exponential(0.02, size=4000):
                hist.record(value)
            exports.append(metrics.snapshot()["latency"]["total"])
        assert exports[0] == exports[1]
        assert exports[0]["p99_ms"] > 0
