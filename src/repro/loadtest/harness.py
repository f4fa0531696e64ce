"""Replay a synthesized traffic trace against the live HTTP server.

A deterministic :class:`~repro.data.synthetic.TrafficTrace` drives the
real :class:`~repro.serve.server.RecommendationServer` from N
closed-loop threads, each on its own :class:`~repro.loadtest.client.Client`;
every check of :mod:`repro.loadtest.checks` judges what they saw, since
a load number from a server that dropped or mis-counted work is not
trustworthy (docs/SERVING.md "Load testing").
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.data.synthetic import TrafficTrace
from repro.loadtest import checks
from repro.loadtest.checks import Outcome
from repro.loadtest.client import Client
from repro.serve.resilience import REFUSAL_REASONS

__all__ = [
    "LoadTestConfig",
    "LoadTestResult",
    "metrics_snapshot",
    "run_clients",
    "run_loadtest",
]


@dataclass
class LoadTestConfig:
    """Client-side replay knobs (the traffic shape lives in the trace)."""

    #: Closed-loop client threads, each with its own persistent
    #: connection (and its own monotone-version check).
    threads: int = 4
    timeout_s: float = 30.0
    #: Stamp a deadline budget onto every payload when set.
    deadline_ms: float | None = None
    #: Open-loop pacing: honour the trace's ``arrival_s`` stamps
    #: (divided by ``pace_speedup``) instead of going flat out.
    pace: bool = False
    pace_speedup: float = 1.0

    def __post_init__(self) -> None:
        for name in ("threads", "timeout_s", "deadline_ms", "pace_speedup"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


class LoadTestResult:
    """Outcomes + metrics deltas + the invariant verdict."""

    def __init__(
        self,
        outcomes: list[Outcome],
        wall_s: float,
        metrics_before: dict,
        metrics_after: dict,
        trace_summary: dict | None = None,
    ) -> None:
        self.outcomes = outcomes
        self.wall_s = wall_s
        self.trace_summary = trace_summary or {}
        self.violations = (
            checks.completeness(outcomes)
            + checks.refusal_envelope(outcomes, REFUSAL_REASONS)
            + checks.item_errors(outcomes, checks.SERVING_ITEM_ERRORS)
            + checks.monotone_versions(outcomes)
            + checks.well_formed(outcomes)
            + checks.metrics_accounting(outcomes, metrics_before, metrics_after)
            + checks.metrics_schema(metrics_after)
        )

    @property
    def ok(self) -> bool:
        return not self.violations

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
        return {
            "events": len(self.outcomes),
            "sequences_completed": self.sequences_completed,
            "wall_s": self.wall_s,
            "qps": self.qps,
            **checks.summarize(self.outcomes),
            "trace": self.trace_summary,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def run_clients(host: str, port: int, timeout_s: float, workers) -> None:
    """Run each ``worker(index, client)`` on its own thread and its own
    :class:`Client`, and return when all have; a worker's exception is
    raised here."""
    errors: list[Exception] = []

    def run(index: int, worker) -> None:
        try:
            with Client(host, port, timeout_s) as client:
                worker(index, client)
        except Exception as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index, worker),
                         name=f"loadtest-client-{index}", daemon=True)
        for index, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def metrics_snapshot(client: Client) -> dict:
    """The server's ``/metrics`` snapshot; the invariants are judged
    against two of them, so without one there is no verdict."""
    reply = client.get("/metrics")
    if reply.error is not None or reply.status != 200:
        raise ConnectionError(f"GET /metrics: {reply.error or reply.status}")
    return reply.body


def run_loadtest(
    trace: TrafficTrace,
    host: str,
    port: int,
    config: LoadTestConfig | None = None,
) -> LoadTestResult:
    """Replay ``trace`` against a live server and judge the invariants.

    ``trace`` is a :class:`~repro.data.synthetic.TrafficTrace`; a
    shorter run replays a shorter trace.  The server must already be
    listening on ``(host, port)``; use
    :func:`repro.serve.config.ServeConfig.build_engine` +
    :class:`~repro.serve.server.RecommendationServer` to self-host.
    """
    config = config or LoadTestConfig()
    events = trace.events()
    events_lock = threading.Lock()
    # A deadline the trace's own payload carries wins over the stamp.
    stamp = {} if config.deadline_ms is None else {"deadline_ms": config.deadline_ms}
    outcomes: list[Outcome] = []

    def replay(index: int, client: Client) -> None:
        while True:
            with events_lock:
                event = next(events, None)
            if event is None:
                return
            if config.pace:
                delay = epoch + event["arrival_s"] / config.pace_speedup - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            payloads = [{**stamp, **p} for p in event["requests"]]
            if event["kind"] == "batch":
                path, payload = "/recommend/batch", {"requests": payloads}
            else:
                path, payload = "/recommend", payloads[0]
            reply = client.post(path, payload)
            outcomes.append(checks.outcome_of(
                reply, f"event {event['index']}", index, path, payload
            ))

    with Client(host, port, config.timeout_s) as probe:
        metrics_before = metrics_snapshot(probe)
        epoch, started = time.monotonic(), time.perf_counter()
        run_clients(host, port, config.timeout_s, [replay] * config.threads)
        wall_s = time.perf_counter() - started
        metrics_after = metrics_snapshot(probe)
    return LoadTestResult(
        outcomes, wall_s, metrics_before, metrics_after, trace.summary()
    )
