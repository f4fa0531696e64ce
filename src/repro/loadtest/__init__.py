"""Deterministic replayed-traffic load testing for the serving stack.

Synthesize a trace with :func:`repro.data.synthetic.synthesize_trace`,
then replay it against a live server::

    from repro.data.synthetic import synthesize_trace
    from repro.loadtest import LoadTestConfig, run_loadtest

    trace = synthesize_trace(num_events=10_000, seed=0)
    result = run_loadtest(trace, "127.0.0.1", 8080, LoadTestConfig())
    assert result.ok, result.violations
    print(result.report()["latency"])

``python -m repro loadtest`` wraps this (self-hosting a server from a
checkpoint or targeting ``--url``) — see ``docs/SERVING.md``.
"""

from repro.loadtest.harness import (
    METRICS_SCHEMA_KEYS,
    EventOutcome,
    LoadTestConfig,
    LoadTestResult,
    run_loadtest,
)

__all__ = [
    "EventOutcome",
    "LoadTestConfig",
    "LoadTestResult",
    "METRICS_SCHEMA_KEYS",
    "run_loadtest",
]
