"""Serving metrics: histograms, counters, cache stats, JSON export."""

import json

import numpy as np

import repro.serve.metrics as metrics_module
from repro.obs.registry import Histogram
from repro.serve.metrics import ServingMetrics


class TestLatencyHistogram:
    def test_count_mean_max(self):
        hist = Histogram()
        for value in (0.1, 0.2, 0.3):
            hist.record(value)
        assert hist.count == 3
        assert np.isclose(hist.mean_seconds, 0.2)
        assert hist.max_seconds == 0.3

    def test_percentiles(self):
        hist = Histogram()
        for value in np.linspace(0.0, 1.0, 101):
            hist.record(value)
        assert np.isclose(hist.percentile(50), 0.5)
        assert np.isclose(hist.percentile(99), 0.99)

    def test_empty_histogram_is_zero(self):
        hist = Histogram()
        assert hist.mean_seconds == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.summary()["count"] == 0

    def test_reservoir_bounds_memory(self):
        hist = Histogram()
        hist.max_samples = 100  # force reservoir replacement
        for value in range(1000):
            hist.record(float(value))
        assert hist.count == 1000  # exact even past the cap
        assert len(hist._samples) == 100
        # Reservoir keeps a spread, not just the head.
        assert max(hist._samples) > 100

    def test_summary_keys(self):
        hist = Histogram()
        hist.record(0.01)
        summary = hist.summary()
        assert set(summary) == {
            "count", "mean_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms"
        }
        assert np.isclose(summary["mean_ms"], 10.0)


class TestServingMetrics:
    def test_time_stage_records(self):
        metrics = ServingMetrics()
        with metrics.time_stage("encode"):
            pass
        assert metrics.stage("encode").count == 1

    def test_counters(self):
        metrics = ServingMetrics()
        metrics.increment("requests")
        metrics.increment("requests", 4)
        assert metrics.counters["requests"] == 5

    def test_cache_hit_rate(self):
        metrics = ServingMetrics()
        assert metrics.snapshot()["cache"]["hit_rate"] == 0.0  # no lookups yet
        metrics.record_cache(True)
        metrics.record_cache(True)
        metrics.record_cache(False)
        assert np.isclose(metrics.snapshot()["cache"]["hit_rate"], 2 / 3)

    def test_snapshot_schema(self):
        metrics = ServingMetrics()
        with metrics.time_stage("total"):
            metrics.increment("requests")
            metrics.record_cache(False)
        snap = metrics.snapshot()
        assert set(snap) == {
            "uptime_seconds", "counters", "gauges", "cache", "throughput",
            "latency",
        }
        assert snap["cache"] == {"hits": 0, "misses": 1, "hit_rate": 0.0}
        assert "total" in snap["latency"]
        assert snap["throughput"]["requests_per_second"] >= 0.0

    def test_uptime_ignores_a_wall_clock_step(self, monkeypatch):
        """Elapsed time is monotonic: the wall clock jumping back an hour
        must not make uptime or the request rate negative."""
        clock = {"wall": 1_000_000.0, "monotonic": 50.0}
        monkeypatch.setattr(metrics_module.time, "time", lambda: clock["wall"])
        monkeypatch.setattr(
            metrics_module.time, "monotonic", lambda: clock["monotonic"]
        )
        metrics = ServingMetrics()
        metrics.increment("requests", 8)
        clock["wall"] -= 3600.0
        clock["monotonic"] += 2.0
        snap = metrics.snapshot()
        assert snap["uptime_seconds"] == 2.0
        assert snap["throughput"]["requests_per_second"] == 4.0

    def test_touch_and_gauges(self):
        metrics = ServingMetrics()
        metrics.touch("requests_shed", "requests_degraded")
        metrics.set_gauge("breaker_state", 2)
        snap = metrics.snapshot()
        assert snap["counters"]["requests_shed"] == 0
        assert snap["counters"]["requests_degraded"] == 0
        assert snap["gauges"]["breaker_state"] == 2

    def test_to_json_round_trips(self):
        metrics = ServingMetrics()
        metrics.increment("requests")
        decoded = json.loads(metrics.to_json())
        assert decoded["counters"]["requests"] == 1
