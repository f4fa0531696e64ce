"""Driving the live server: the one HTTP client (:mod:`.client`), the
one set of serving checks (:mod:`.checks`), the replayed-traffic load
test (:mod:`.harness`) and the fault scenario (:mod:`.chaos`).

Synthesize a trace with :func:`repro.data.synthetic.synthesize_trace`,
then replay it against a live server::

    from repro.data.synthetic import synthesize_trace
    from repro.loadtest import LoadTestConfig, run_loadtest

    trace = synthesize_trace(num_events=10_000, seed=0)
    result = run_loadtest(trace, "127.0.0.1", 8080, LoadTestConfig())
    assert result.ok, result.violations
    print(result.report()["latency"])

``python -m repro loadtest`` wraps this (self-hosting a server from a
checkpoint or targeting ``--url``) and ``python -m repro chaos`` runs
the fault scenario — see ``docs/SERVING.md`` and ``docs/ROBUSTNESS.md``.
"""

from repro.loadtest.chaos import ChaosReport, run_chaos
from repro.loadtest.checks import Outcome
from repro.loadtest.client import Client, Reply
from repro.loadtest.harness import LoadTestConfig, LoadTestResult, run_loadtest

__all__ = [
    "ChaosReport",
    "Client",
    "LoadTestConfig",
    "LoadTestResult",
    "Outcome",
    "Reply",
    "run_chaos",
    "run_loadtest",
]
