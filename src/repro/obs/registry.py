"""In-process metrics primitives shared by training, eval and serving.

One :class:`MetricsRegistry` per run (or per engine) holds three kinds
of instruments, all allocation-cheap and dependency-free:

* :class:`Counter` — monotone integer counts (requests, batches,
  sequences encoded, rollbacks).
* :class:`Gauge` — a last-written float (current learning rate, queue
  depth).
* :class:`Histogram` — streaming distribution of float observations
  (seconds, by convention) with exact count/mean/max and reservoir-
  sampled percentiles, bounded at :data:`MAX_SAMPLES` entries so
  long-running processes stay O(1) in memory.

:meth:`MetricsRegistry.timer` wraps a ``with`` block's wall time into a
histogram; :meth:`MetricsRegistry.snapshot` exports everything as one
JSON-friendly dict.  ``repro.serve.metrics.ServingMetrics`` is a thin
facade over this module, so serving and training export one schema —
see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import time
import zlib

import numpy as np

#: Per-histogram sample cap; beyond it the reservoir keeps a uniform
#: random subsample so long-running processes stay O(1) in memory.
MAX_SAMPLES = 65536

#: Percentiles exported by :meth:`Histogram.summary`.
PERCENTILES = (50.0, 90.0, 99.0)


class Counter:
    """A monotone integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def increment(self, by: int = 1) -> None:
        """Add ``by`` (must be non-negative) to the count."""
        by = int(by)
        if by < 0:
            raise ValueError(f"counters only go up, got increment {by}")
        self.value += by


class Gauge:
    """A float that tracks the last written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


class Histogram:
    """Streaming recorder of float observations with percentiles.

    Stores raw samples (seconds, by convention) up to ``max_samples``,
    then reservoir-samples (Vitter's algorithm R) so percentiles stay
    representative of the whole run, not just its head.  Counts,
    totals and the max are always exact.  Every summary statistic is
    guaranteed NaN-free: an empty histogram reports zeros, and a
    single-sample reservoir reports that sample for every percentile.
    """

    def __init__(self, max_samples: int = MAX_SAMPLES, seed: int = 0) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.max_samples = max_samples
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self._samples: list[float] = []
        self._rng = np.random.default_rng(seed)

    def record(self, seconds: float) -> None:
        """Add one observation (in seconds)."""
        seconds = float(seconds)
        if math.isnan(seconds):
            return  # a NaN sample must never poison the percentiles
        self.count += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        if len(self._samples) < self.max_samples:
            self._samples.append(seconds)
        else:  # reservoir sampling, Vitter's algorithm R
            slot = int(self._rng.integers(0, self.count))
            if slot < self.max_samples:
                self._samples[slot] = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    # Cross-process state transfer
    # ------------------------------------------------------------------
    def state(self, sample_cap: int | None = None) -> dict:
        """Raw, mergeable state (exact aggregates + reservoir samples).

        Serving workers ship this across process boundaries so the
        frontend can merge per-worker histograms into one ``/metrics``
        view.  ``sample_cap`` bounds the shipped reservoir (a seeded
        deterministic subsample) to keep the payload small; counts,
        totals and the max stay exact regardless.
        """
        samples = self._samples
        if sample_cap is not None and len(samples) > sample_cap:
            if sample_cap < 1:
                raise ValueError(f"sample_cap must be positive, got {sample_cap}")
            chosen = np.sort(
                self._rng.choice(len(samples), size=sample_cap, replace=False)
            )
            samples = [samples[i] for i in chosen]
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
            "samples": list(samples),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Counts, totals and the max combine exactly; reservoir samples
        are appended (reservoir-replaced past ``max_samples`` through
        this histogram's seeded RNG), so the merged percentiles are a
        deterministic approximation of the combined distribution.
        """
        other_count = int(state["count"])
        if other_count < 0:
            raise ValueError(f"merged count must be non-negative, got {other_count}")
        self.count += other_count
        self.total_seconds += float(state["total_seconds"])
        self.max_seconds = max(self.max_seconds, float(state["max_seconds"]))
        for sample in state["samples"]:
            sample = float(sample)
            if len(self._samples) < self.max_samples:
                self._samples.append(sample)
            else:
                slot = int(self._rng.integers(0, len(self._samples) * 2))
                if slot < self.max_samples:
                    self._samples[slot] = sample

    def percentile(self, q: float) -> float:
        """q-th percentile of the recorded values, in seconds.

        Returns 0.0 on an empty histogram and the sole sample on a
        single-entry reservoir — never NaN.
        """
        if not self._samples:
            return 0.0
        if len(self._samples) == 1:
            return self._samples[0]
        value = float(np.percentile(np.asarray(self._samples), q))
        return 0.0 if math.isnan(value) else value

    def summary(self) -> dict[str, float]:
        """JSON-friendly summary (milliseconds for human-scale fields)."""
        out = {
            "count": self.count,
            "mean_ms": self.mean_seconds * 1e3,
            "max_ms": self.max_seconds * 1e3,
        }
        for q in PERCENTILES:
            out[f"p{q:g}_ms"] = self.percentile(q) * 1e3
        return out


class _Timer:
    """``with`` block → one wall-time observation in a registry histogram.

    A plain slotted class rather than a ``@contextmanager`` generator:
    serving opens four per request.  The duration is recorded whether
    the body returns or raises, and an exception propagates unchanged.
    """

    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._registry.histogram(self._name).record(
            time.perf_counter() - self._started
        )


class MetricsRegistry:
    """Named counters, gauges and histograms behind one object.

    Instruments are created on first use, so call sites never need
    registration boilerplate::

        registry.increment("batches")
        registry.gauge("lr").set(1e-3)
        with registry.timer("epoch_seconds"):
            run_epoch()

    ``seed`` deterministically derives every histogram's reservoir RNG
    from the instrument name, so percentile exports (``/metrics`` p99)
    are reproducible run to run — and distinct per worker when sharded
    serving passes each worker its own registry seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def _histogram_seed(self, name: str) -> int:
        """A stable per-instrument reservoir seed (registry seed + name)."""
        return zlib.crc32(f"{self.seed}:{name}".encode())

    # ------------------------------------------------------------------
    # Instrument access (created on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter for ``name``, created at zero on first use."""
        if name not in self.counters:
            self.counters[name] = Counter()
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge for ``name``, created at zero on first use."""
        if name not in self.gauges:
            self.gauges[name] = Gauge()
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram for ``name``, created empty on first use."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(seed=self._histogram_seed(name))
        return self.histograms[name]

    # ------------------------------------------------------------------
    # Recording shortcuts
    # ------------------------------------------------------------------
    def increment(self, name: str, by: int = 1) -> None:
        """Bump counter ``name``."""
        self.counter(name).increment(by)

    def observe(self, name: str, seconds: float) -> None:
        """Record one observation into histogram ``name``."""
        self.histogram(name).record(seconds)

    def timer(self, name: str) -> "_Timer":
        """Record the body's wall time into histogram ``name``."""
        return _Timer(self, name)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counter_values(self) -> dict[str, int]:
        """Plain ``name -> count`` mapping of every counter."""
        return {name: counter.value for name, counter in self.counters.items()}

    def snapshot(self) -> dict:
        """The full registry state as one JSON-friendly dict."""
        return {
            "counters": self.counter_values(),
            "gauges": {name: gauge.value for name, gauge in self.gauges.items()},
            "histograms": {
                name: hist.summary() for name, hist in self.histograms.items()
            },
        }

    # ------------------------------------------------------------------
    # Cross-process merging (sharded serving)
    # ------------------------------------------------------------------
    def state(self, sample_cap: int | None = None) -> dict:
        """Raw, mergeable registry state (see :meth:`Histogram.state`).

        Unlike :meth:`snapshot` this is loss-aware transfer format, not
        presentation: histograms carry their reservoir samples so a
        receiving registry can recompute percentiles over the union.
        """
        return {
            "counters": self.counter_values(),
            "gauges": {name: gauge.value for name, gauge in self.gauges.items()},
            "histograms": {
                name: hist.state(sample_cap=sample_cap)
                for name, hist in self.histograms.items()
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold one :meth:`state` payload into this registry.

        Counters add, gauges take the max (both sides report the same
        monotone quantities — ``model_version``, ``breaker_state`` —
        where max is the conservative view), histograms merge their
        reservoirs.  Merging the same cumulative payload twice double
        counts; merge into a scratch registry per export instead (see
        :meth:`from_states`).
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).increment(value)
        for name, value in state.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, float(value)))
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name).merge_state(hist_state)

    @classmethod
    def from_states(cls, states: list[dict], seed: int = 0) -> "MetricsRegistry":
        """A fresh registry holding the merge of ``states``.

        The sharded serving frontend calls this on every ``/metrics``
        export with its own state plus each worker's, so repeated
        exports never accumulate into a live registry.
        """
        merged = cls(seed=seed)
        for state in states:
            merged.merge_state(state)
        return merged
