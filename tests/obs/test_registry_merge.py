"""Seeded reservoirs.

PR-8 fix: ``ServingMetrics`` histograms used to seed their reservoirs
from the global default RNG, making exported ``/metrics`` percentiles
nondeterministic run to run once a histogram overflowed its sample
cap.  The registry now derives every histogram's RNG from its own seed
plus the instrument name.
"""

import numpy as np

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
        registry = MetricsRegistry()
        registry.histograms["latency"] = hist = Histogram(
            seed=registry._histogram_seed("latency")
        )
        hist.max_samples = 16  # force reservoir replacement
        _fill(registry, 2000)
        snapshots.append(registry.snapshot())
    assert snapshots[0] == snapshots[1]


def test_distinct_names_get_distinct_reservoir_seeds():
    registry = MetricsRegistry()
    assert registry._histogram_seed("a") != registry._histogram_seed("b")


def test_serving_metrics_p99_deterministic_run_to_run():
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
