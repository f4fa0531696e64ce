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

    All state lives in a :class:`repro.obs.registry.MetricsRegistry`;
    pass one in to share instruments with a wider observability setup
    (e.g. a :class:`repro.obs.RunObserver`).  ``seed`` threads into the
    registry's reservoir RNGs so exported percentiles are
    deterministic run to run (ignored when ``registry`` is supplied).
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, seed: int = 0
    ) -> None:
        # Elapsed time is measured on the monotonic clock: a wall-clock
        # step (NTP, a manual date change) must not make uptime negative.
        self._started = time.monotonic()
        self.registry = (
            registry if registry is not None else MetricsRegistry(seed=seed)
        )

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
    def cache_hit_rate(self) -> float:
        """Fraction of representation lookups served from cache."""
        hits = self._count("user_cache_hits")
        misses = self._count("user_cache_misses")
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

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
        return self._snapshot_of(self.registry)

    def _snapshot_of(self, registry: MetricsRegistry) -> dict:
        """The serving snapshot schema computed over ``registry``."""
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

    def state(self, sample_cap: int | None = None) -> dict:
        """Mergeable raw state (see :meth:`MetricsRegistry.state`)."""
        return self.registry.state(sample_cap=sample_cap)

    def merged_snapshot(self, states: list[dict]) -> dict:
        """One snapshot over this facade's registry plus ``states``.

        The sharded serving frontend passes each worker's
        :meth:`state` payload; counters add, gauges take the max with
        the frontend's own gauges overlaid (the frontend is
        authoritative for ``model_version`` and admission gauges), and
        histograms merge reservoirs into a scratch registry so
        repeated exports never double count.
        """
        merged = MetricsRegistry.from_states(
            [self.registry.state()] + list(states), seed=self.registry.seed
        )
        for name, gauge in self.registry.gauges.items():
            merged.gauge(name).set(gauge.value)
        return self._snapshot_of(merged)

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`snapshot` as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
