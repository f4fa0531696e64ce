"""Seeded reservoirs and cross-process registry merging.

PR-8 fix: ``ServingMetrics`` histograms used to seed their reservoirs
from the global default RNG, making exported ``/metrics`` percentiles
nondeterministic run to run once a histogram overflowed its sample
cap.  The registry now derives every histogram's RNG from its own seed
plus the instrument name, and the sharded serving frontend merges
per-worker registry states through the same machinery.
"""

import numpy as np
import pytest

from repro.obs.registry import Histogram, MetricsRegistry
from repro.serve.metrics import ServingMetrics


def _fill(registry: MetricsRegistry, n: int = 500) -> None:
    rng = np.random.default_rng(99)
    values = rng.exponential(0.01, size=n)
    for value in values:
        registry.observe("latency", value)


# ----------------------------------------------------------------------
# Seeded determinism
# ----------------------------------------------------------------------
def test_overflowing_reservoir_is_deterministic_per_seed():
    summaries = []
    for __ in range(2):
        hist = Histogram(seed=7)
        hist.max_samples = 16  # force reservoir replacement
        for value in np.random.default_rng(1).normal(1.0, 0.1, size=2000):
            hist.record(value)
        summaries.append(hist.summary())
    assert summaries[0] == summaries[1]


def test_registry_seed_threads_into_every_histogram():
    snapshots = []
    for __ in range(2):
        registry = MetricsRegistry(seed=3)
        registry.histograms["latency"] = hist = Histogram(
            seed=registry._histogram_seed("latency")
        )
        hist.max_samples = 16  # force reservoir replacement
        _fill(registry, 2000)
        snapshots.append(registry.snapshot())
    assert snapshots[0] == snapshots[1]


def test_distinct_names_get_distinct_reservoir_seeds():
    registry = MetricsRegistry(seed=0)
    assert registry._histogram_seed("a") != registry._histogram_seed("b")
    other = MetricsRegistry(seed=1)
    assert registry._histogram_seed("a") != other._histogram_seed("a")


def test_serving_metrics_p99_deterministic_run_to_run():
    exports = []
    for __ in range(2):
        metrics = ServingMetrics(seed=5)
        hist = metrics.stage("total")
        hist.max_samples = 32  # force reservoir replacement
        for value in np.random.default_rng(2).exponential(0.02, size=4000):
            hist.record(value)
        exports.append(metrics.snapshot()["latency"]["total"])
    assert exports[0] == exports[1]
    assert exports[0]["p99_ms"] > 0


# ----------------------------------------------------------------------
# State transfer + merging
# ----------------------------------------------------------------------
def test_state_roundtrip_keeps_exact_aggregates():
    registry = MetricsRegistry(seed=0)
    registry.increment("requests", 7)
    registry.gauge("model_version").set(3)
    _fill(registry, 100)
    state = registry.state()
    merged = MetricsRegistry.from_states([state], seed=0)
    assert merged.counter_values() == {"requests": 7}
    assert merged.gauge("model_version").value == 3.0
    hist = merged.histogram("latency")
    assert hist.count == 100
    assert hist.total_seconds == pytest.approx(
        registry.histogram("latency").total_seconds
    )
    assert hist.max_seconds == registry.histogram("latency").max_seconds


def test_sample_cap_bounds_payload_and_is_deterministic():
    registry = MetricsRegistry(seed=0)
    _fill(registry, 200)
    capped = registry.state(sample_cap=10)
    assert len(capped["histograms"]["latency"]["samples"]) == 10
    assert capped["histograms"]["latency"]["count"] == 200  # exact anyway
    with pytest.raises(ValueError):
        registry.histogram("latency").state(sample_cap=0)


def test_merge_adds_counters_and_maxes_gauges():
    a = MetricsRegistry(seed=0)
    a.increment("requests", 5)
    a.gauge("model_version").set(2)
    b = MetricsRegistry(seed=0)
    b.increment("requests", 8)
    b.increment("batches", 1)
    b.gauge("model_version").set(3)
    merged = MetricsRegistry.from_states([a.state(), b.state()], seed=0)
    assert merged.counter_values() == {"requests": 13, "batches": 1}
    assert merged.gauge("model_version").value == 3.0


def test_merged_histogram_covers_both_distributions():
    fast, slow = MetricsRegistry(seed=0), MetricsRegistry(seed=0)
    for __ in range(100):
        fast.observe("latency", 0.001)
        slow.observe("latency", 0.1)
    merged = MetricsRegistry.from_states([fast.state(), slow.state()], seed=0)
    hist = merged.histogram("latency")
    assert hist.count == 200
    assert hist.percentile(99) == pytest.approx(0.1)
    assert hist.percentile(10) == pytest.approx(0.001)


def test_negative_merged_count_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("h").merge_state(
            {"count": -1, "total_seconds": 0, "max_seconds": 0, "samples": []}
        )


# ----------------------------------------------------------------------
# ServingMetrics.merged_snapshot (the sharded /metrics path)
# ----------------------------------------------------------------------
def _worker_state(requests: int, version: float, latency: float) -> dict:
    worker = ServingMetrics(seed=1)
    worker.increment("requests", requests)
    worker.set_gauge("model_version", version)
    worker.stage("total").record(latency)
    return worker.state()


def test_merged_snapshot_sums_workers_without_double_counting():
    frontend = ServingMetrics(seed=0)
    frontend.increment("fanout_batches", 4)
    states = [_worker_state(10, 2, 0.01), _worker_state(20, 2, 0.02)]
    first = frontend.merged_snapshot(states)
    second = frontend.merged_snapshot(states)  # repeated export
    assert first["counters"]["requests"] == 30
    assert first["counters"]["fanout_batches"] == 4
    assert second["counters"]["requests"] == 30  # no accumulation
    assert first["latency"]["total"]["count"] == 2


def test_merged_snapshot_frontend_gauges_win():
    frontend = ServingMetrics(seed=0)
    frontend.set_gauge("model_version", 5)
    snap = frontend.merged_snapshot([_worker_state(1, 9, 0.01)])
    # The frontend is authoritative for its own gauges even when a
    # (stale or racing) worker reports a different value.
    assert snap["gauges"]["model_version"] == 5.0


def test_merged_snapshot_keeps_serving_schema():
    frontend = ServingMetrics(seed=0)
    snap = frontend.merged_snapshot([_worker_state(3, 1, 0.01)])
    for key in ("uptime_seconds", "counters", "gauges", "cache",
                "throughput", "latency"):
        assert key in snap
    assert snap["cache"]["hit_rate"] == 0.0
