"""Replay a synthesized traffic trace against the live HTTP server.

The harness is the measuring half of the serving stack
(``docs/SERVING.md`` "Load testing"): it takes a deterministic
:class:`~repro.data.synthetic.TrafficTrace`, drives the real
:class:`~repro.serve.server.RecommendationServer` over persistent
HTTP/1.1 connections from N closed-loop client threads, and checks the
serving invariants that make a load number trustworthy:

* **completeness** — every event gets an HTTP response; transport
  errors and timeouts are violations, not noise;
* **refusal envelope** — non-200 responses must carry a structured
  refusal reason from :data:`repro.serve.resilience.REFUSAL_REASONS`
  (shed / deadline); anything else means the server broke
  on valid traffic;
* **monotone model version** — each client observes a non-decreasing
  ``model_version``, so hot reloads never serve stale weights after
  new ones were visible;
* **accounting** — the engine's ``requests`` counter moves by exactly
  the number of sequences it answered — those in successful responses
  plus those it refused on their deadline (a shed request never
  reaches it) — and ``requests_degraded`` by exactly the degraded
  items clients saw: the metrics pipeline cannot silently drop or
  invent work;
* **schema** — ``/metrics`` keeps the documented serving schema.

Latency percentiles (p50/p90/p99) and sustained QPS come out in
:meth:`LoadTestResult.report`, which ``repro loadtest --output`` writes
as JSON.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection

import numpy as np

from repro.serve.resilience import REASON_DEADLINE, REFUSAL_REASONS

__all__ = [
    "EventOutcome",
    "LoadTestConfig",
    "LoadTestResult",
    "run_loadtest",
]

#: ``/metrics`` keys the schema invariant requires (docs/SERVING.md).
METRICS_SCHEMA_KEYS = (
    "uptime_seconds", "counters", "gauges", "cache", "throughput", "latency",
)


@dataclass
class LoadTestConfig:
    """Client-side replay knobs (the traffic shape lives in the trace)."""

    #: Closed-loop client threads, each with its own persistent
    #: connection (and its own monotone-version check).
    threads: int = 4
    timeout_s: float = 30.0
    #: Replay only the first N trace events (``--quick`` runs).
    max_events: int | None = None
    #: Stamp a deadline budget onto every payload when set.
    deadline_ms: float | None = None
    #: Open-loop pacing: honour the trace's ``arrival_s`` stamps
    #: (divided by ``pace_speedup``) instead of going flat out.
    pace: bool = False
    pace_speedup: float = 1.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")
        if self.pace_speedup <= 0:
            raise ValueError(
                f"pace_speedup must be positive, got {self.pace_speedup}"
            )


@dataclass
class EventOutcome:
    """What one replayed trace event observed."""

    index: int
    kind: str
    thread: int
    status: int
    latency_s: float
    sequences: int
    ok_items: int = 0
    degraded_items: int = 0
    error_reasons: list = field(default_factory=list)
    refusal_reason: str | None = None
    model_versions: list = field(default_factory=list)
    transport_error: str | None = None


class LoadTestResult:
    """Outcomes + metrics deltas + the invariant verdict."""

    def __init__(
        self,
        outcomes: list[EventOutcome],
        wall_s: float,
        metrics_before: dict,
        metrics_after: dict,
        trace_summary: dict | None = None,
    ) -> None:
        self.outcomes = outcomes
        self.wall_s = wall_s
        self.metrics_before = metrics_before
        self.metrics_after = metrics_after
        self.trace_summary = trace_summary or {}
        self.violations = self._check_invariants()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def _latencies(self) -> np.ndarray:
        return np.asarray(
            [o.latency_s for o in self.outcomes if o.status == 200]
            or [0.0]
        )

    def percentiles(self) -> dict:
        latencies = self._latencies() * 1e3
        return {
            "p50_ms": float(np.percentile(latencies, 50)),
            "p90_ms": float(np.percentile(latencies, 90)),
            "p99_ms": float(np.percentile(latencies, 99)),
            "mean_ms": float(latencies.mean()),
            "max_ms": float(latencies.max()),
        }

    @property
    def sequences_completed(self) -> int:
        """Sequences inside 200 responses (errored items included —
        the engine scored or explicitly refused each one)."""
        return sum(o.sequences for o in self.outcomes if o.status == 200)

    @property
    def qps(self) -> float:
        """Sustained throughput: completed sequences per wall second."""
        return self.sequences_completed / self.wall_s if self.wall_s > 0 else 0.0

    def report(self) -> dict:
        """The JSON payload benchmarks persist."""
        statuses: dict[str, int] = {}
        refusals: dict[str, int] = {}
        item_errors: dict[str, int] = {}
        for outcome in self.outcomes:
            statuses[str(outcome.status)] = statuses.get(
                str(outcome.status), 0) + 1
            if outcome.refusal_reason:
                refusals[outcome.refusal_reason] = refusals.get(
                    outcome.refusal_reason, 0) + 1
            for reason in outcome.error_reasons:
                item_errors[reason] = item_errors.get(reason, 0) + 1
        return {
            "events": len(self.outcomes),
            "sequences_completed": self.sequences_completed,
            "degraded_items": sum(o.degraded_items for o in self.outcomes),
            "wall_s": self.wall_s,
            "qps": self.qps,
            "latency": self.percentiles(),
            "statuses": statuses,
            "refusals": refusals,
            "item_errors": item_errors,
            "trace": self.trace_summary,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _counter_delta(self, name: str) -> int:
        after = self.metrics_after.get("counters", {}).get(name, 0)
        before = self.metrics_before.get("counters", {}).get(name, 0)
        return int(after) - int(before)

    def _check_invariants(self) -> list[str]:
        violations: list[str] = []

        dropped = [o.index for o in self.outcomes if o.transport_error]
        if dropped:
            sample = self.outcomes[
                [o.index for o in self.outcomes].index(dropped[0])
            ]
            violations.append(
                f"{len(dropped)} events got no HTTP response (first: event "
                f"{dropped[0]}: {sample.transport_error})"
            )

        bad_refusals = [
            (o.index, o.status, o.refusal_reason)
            for o in self.outcomes
            if not o.transport_error and o.status != 200
            and o.refusal_reason not in REFUSAL_REASONS
        ]
        if bad_refusals:
            violations.append(
                f"{len(bad_refusals)} non-200 responses outside the "
                f"shed/deadline envelope (first: {bad_refusals[0]})"
            )

        bad_items = [
            (o.index, reason)
            for o in self.outcomes
            for reason in o.error_reasons
            if reason != REASON_DEADLINE
        ]
        if bad_items:
            violations.append(
                f"{len(bad_items)} in-batch item errors other than "
                f"deadline_exceeded on valid traffic (first: {bad_items[0]})"
            )

        by_thread: dict[int, list[tuple[int, int]]] = {}
        for outcome in self.outcomes:
            for version in outcome.model_versions:
                by_thread.setdefault(outcome.thread, []).append(
                    (outcome.index, version)
                )
        for thread, seen in by_thread.items():
            seen.sort()  # outcomes are recorded per thread in replay order
            versions = [version for __, version in seen]
            if any(b < a for a, b in zip(versions, versions[1:])):
                violations.append(
                    f"client thread {thread} observed a model_version "
                    f"regression: {versions}"
                )

        # The engine counts every request it resolved, served or
        # refused on its deadline; a shed 503 never reaches it.
        expected = self.sequences_completed + sum(
            o.sequences for o in self.outcomes
            if o.refusal_reason == REASON_DEADLINE
        )
        actual = self._counter_delta("requests")
        if actual != expected:
            violations.append(
                f"metrics accounting: engine 'requests' moved by {actual} "
                f"but clients saw {expected} sequences answered"
            )

        degraded_seen = sum(o.degraded_items for o in self.outcomes)
        degraded_counted = self._counter_delta("requests_degraded")
        if degraded_counted != degraded_seen:
            violations.append(
                f"degraded-tier accounting: 'requests_degraded' moved by "
                f"{degraded_counted} but clients saw {degraded_seen} "
                f"degraded items"
            )

        missing = [
            key for key in METRICS_SCHEMA_KEYS if key not in self.metrics_after
        ]
        if missing:
            violations.append(f"/metrics schema is missing keys {missing}")
        return violations


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _get_json(host: str, port: int, path: str, timeout_s: float) -> dict:
    conn = HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _payload_with_deadline(payload: dict, deadline_ms: float | None) -> dict:
    if deadline_ms is None or "deadline_ms" in payload:
        return payload
    stamped = dict(payload)
    stamped["deadline_ms"] = deadline_ms
    return stamped


def _observe(outcome: EventOutcome, body: dict, kind: str) -> None:
    """Fold one 200 response body into its outcome."""
    results = body["results"] if kind == "batch" else [body]
    for result in results:
        reason = result.get("reason")
        if reason is not None:
            outcome.error_reasons.append(reason)
        else:
            outcome.ok_items += 1
            outcome.degraded_items += bool(result.get("degraded"))
        if "model_version" in result:
            outcome.model_versions.append(int(result["model_version"]))


def _replay_thread(
    thread: int,
    host: str,
    port: int,
    config: LoadTestConfig,
    events_lock: threading.Lock,
    events_iter,
    outcomes: list[EventOutcome],
    outcomes_lock: threading.Lock,
    epoch: float,
) -> None:
    conn = HTTPConnection(host, port, timeout=config.timeout_s)
    headers = {"Content-Type": "application/json"}
    try:
        while True:
            with events_lock:
                event = next(events_iter, None)
            if event is None:
                return
            if config.pace:
                due = epoch + event["arrival_s"] / config.pace_speedup
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            kind = event["kind"]
            payloads = [
                _payload_with_deadline(p, config.deadline_ms)
                for p in event["requests"]
            ]
            if kind == "batch":
                path, body = "/recommend/batch", {"requests": payloads}
            else:
                path, body = "/recommend", payloads[0]
            outcome = EventOutcome(
                index=event["index"], kind=kind, thread=thread,
                status=0, latency_s=0.0, sequences=len(payloads),
            )
            encoded = json.dumps(body).encode("utf-8")
            started = time.perf_counter()
            try:
                conn.request("POST", path, body=encoded, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                outcome.latency_s = time.perf_counter() - started
                outcome.status = response.status
                parsed = json.loads(raw.decode("utf-8"))
                if response.status == 200:
                    _observe(outcome, parsed, kind)
                else:
                    outcome.refusal_reason = parsed.get("reason")
            except Exception as error:  # noqa: BLE001 — recorded, judged later
                outcome.latency_s = time.perf_counter() - started
                outcome.transport_error = f"{type(error).__name__}: {error}"
                conn.close()
                conn = HTTPConnection(host, port, timeout=config.timeout_s)
            with outcomes_lock:
                outcomes.append(outcome)
    finally:
        conn.close()


def run_loadtest(
    trace,
    host: str,
    port: int,
    config: LoadTestConfig | None = None,
) -> LoadTestResult:
    """Replay ``trace`` against a live server and judge the invariants.

    ``trace`` is a :class:`~repro.data.synthetic.TrafficTrace` (or any
    iterable of its event dicts).  The server must already be
    listening on ``(host, port)``; use
    :func:`repro.serve.config.ServeConfig.build_engine` +
    :class:`~repro.serve.server.RecommendationServer` to self-host.
    """
    config = config or LoadTestConfig()
    metrics_before = _get_json(host, port, "/metrics", config.timeout_s)
    events_iter = iter(
        trace.events(config.max_events) if hasattr(trace, "events") else trace
    )
    events_lock = threading.Lock()
    outcomes: list[EventOutcome] = []
    outcomes_lock = threading.Lock()
    epoch = time.monotonic()
    threads = [
        threading.Thread(
            target=_replay_thread,
            args=(index, host, port, config, events_lock, events_iter,
                  outcomes, outcomes_lock, epoch),
            name=f"loadtest-client-{index}",
            daemon=True,
        )
        for index in range(config.threads)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    metrics_after = _get_json(host, port, "/metrics", config.timeout_s)
    summary = (
        trace.summary(config.max_events) if hasattr(trace, "summary") else None
    )
    return LoadTestResult(
        outcomes, wall_s, metrics_before, metrics_after, summary
    )
