"""Serving metrics: a thin facade over the shared ``repro.obs`` registry.

Historically this module owned its own histogram implementation; the
reservoir/percentile machinery now lives in
:class:`repro.obs.registry.Histogram` so serving and training share
one metrics substrate (and one set of edge-case fixes).  The exported
JSON schema is unchanged from the original serving engine
(``docs/SERVING.md``): ``uptime_seconds``, ``counters``, ``cache``,
``throughput`` and per-stage ``latency`` summaries.
"""

from __future__ import annotations

import json
import time

from repro.obs.registry import MAX_SAMPLES, PERCENTILES, Histogram, MetricsRegistry

__all__ = [
    "MAX_SAMPLES",
    "PERCENTILES",
    "ServingMetrics",
]


class ServingMetrics:
    """All engine instrumentation behind one object.

    * ``stages`` — per-stage latency histograms (``resolve``,
      ``encode``, ``score``, ``topk`` and the end-to-end ``total``).
    * ``counters`` — monotone counts: requests served, sequences
      encoded, items scored, batches flushed.
    * user-representation cache hits/misses with a derived hit rate.

    All state lives in a :class:`repro.obs.registry.MetricsRegistry`,
    whose seeded reservoirs make exported percentiles deterministic run
    to run.
    """

    def __init__(self) -> None:
        # Elapsed time is measured on the monotonic clock: a wall-clock
        # step (NTP, a manual date change) must not make uptime negative.
        self._started = time.monotonic()
        self.registry = MetricsRegistry()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def stages(self) -> dict[str, Histogram]:
        """Per-stage latency histograms (the registry's, by reference)."""
        return self.registry.histograms

    def stage(self, name: str) -> Histogram:
        """The histogram for ``name``, created on first use."""
        return self.registry.histogram(name)

    def time_stage(self, name: str):
        """Context manager recording the body's wall time under ``name``."""
        return self.registry.timer(name)

    def increment(self, name: str, by: int = 1) -> None:
        """Bump counter ``name`` (created at zero on first use)."""
        self.registry.increment(name, by)

    def touch(self, *names: str) -> None:
        """Create counters at zero so they appear in ``/metrics`` early.

        The resilience layer pre-registers its counters
        (``requests_shed``, ``requests_degraded``, ...) so dashboards
        and schema checks see them before the first incident.
        """
        for name in names:
            self.registry.counter(name)

    def set_gauge(self, name: str, value: float) -> None:
        """Overwrite gauge ``name`` (created on first use)."""
        self.registry.gauge(name).set(value)

    def record_cache(self, hit: bool) -> None:
        """Count one user-representation cache lookup."""
        self.increment("user_cache_hits" if hit else "user_cache_misses")

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        """Plain ``name -> count`` view of every counter."""
        return self.registry.counter_values()

    def _count(self, name: str) -> int:
        """A counter's value without creating it on read."""
        counter = self.registry.counters.get(name)
        return counter.value if counter is not None else 0

    @property
    def uptime_seconds(self) -> float:
        """Seconds since construction, on the monotonic clock."""
        return time.monotonic() - self._started

    @property
    def requests_per_second(self) -> float:
        """Requests served per second since construction."""
        elapsed = self.uptime_seconds
        if elapsed <= 0:
            return 0.0
        return self._count("requests") / elapsed

    def snapshot(self) -> dict:
        """The full metrics state as a JSON-friendly dict."""
        registry = self.registry
        counters = registry.counter_values()
        hits = counters.get("user_cache_hits", 0)
        misses = counters.get("user_cache_misses", 0)
        lookups = hits + misses
        elapsed = self.uptime_seconds
        return {
            "uptime_seconds": elapsed,
            "counters": counters,
            "gauges": {
                name: gauge.value for name, gauge in registry.gauges.items()
            },
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
            },
            "throughput": {
                "requests_per_second": (
                    counters.get("requests", 0) / elapsed if elapsed > 0 else 0.0
                )
            },
            "latency": {
                name: hist.summary()
                for name, hist in registry.histograms.items()
            },
        }

    def to_json(self) -> str:
        """Serialize :meth:`snapshot` as indented JSON."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
