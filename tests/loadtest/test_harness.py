"""Load-test harness: invariant checking + an end-to-end replay."""

import threading

import pytest

from repro.data.synthetic import synthesize_trace
from repro.experiments.config import ExperimentScale
from repro.loadtest import (
    LoadTestConfig,
    LoadTestResult,
    Outcome,
    run_loadtest,
)
from repro.models.registry import build_model
from repro.serve import RecommendationEngine, RecommendationServer

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def server(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    engine = RecommendationEngine(model, tiny_dataset)
    srv = RecommendationServer(engine, port=0, max_inflight=64)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def trace(tiny_dataset):
    return synthesize_trace(
        num_events=150,
        user_pool=tiny_dataset.num_users,
        num_items=tiny_dataset.num_items,
        hot_users=40,
        seed=17,
    )


# ----------------------------------------------------------------------
# End-to-end replay
# ----------------------------------------------------------------------
def test_replay_against_live_server(server, trace):
    host, port = server.address
    result = run_loadtest(
        trace, host, port, LoadTestConfig(threads=3)
    )
    assert result.ok, result.violations
    assert len(result.outcomes) == 150
    assert result.sequences_completed == trace.summary()["sequences"]
    assert result.qps > 0
    report = result.report()
    assert report["latency"]["p99_ms"] >= report["latency"]["p50_ms"] > 0
    assert report["statuses"] == {"200": 150}
    assert report["trace"]["distinct_users"] > 40
    assert report["violations"] == []


def test_replay_is_complete_under_tiny_deadlines(server, tiny_dataset):
    """An absurd deadline budget produces refusals, never violations."""
    host, port = server.address
    short = synthesize_trace(
        num_events=60,
        user_pool=tiny_dataset.num_users,
        num_items=tiny_dataset.num_items,
        hot_users=40,
        seed=17,
    )
    result = run_loadtest(
        short, host, port, LoadTestConfig(threads=3, deadline_ms=0.01)
    )
    assert result.ok, result.violations
    assert len(result.outcomes) == 60
    report = result.report()
    refused = report["refusals"].get("deadline_exceeded", 0)
    expired = report["item_errors"].get("deadline_exceeded", 0)
    assert refused + expired > 0  # the budget genuinely bit
    for status in report["statuses"]:
        assert status in {"200", "504"}


def test_paced_replay_respects_arrivals(server, tiny_dataset):
    host, port = server.address
    paced = synthesize_trace(
        num_events=20, user_pool=tiny_dataset.num_users,
        num_items=tiny_dataset.num_items, hot_users=10,
        calm_qps=400.0, burst_qps=400.0, seed=1,
    )
    last_arrival = max(e["arrival_s"] for e in paced)
    result = run_loadtest(
        paced, host, port, LoadTestConfig(threads=2, pace=True)
    )
    assert result.ok, result.violations
    assert result.wall_s >= last_arrival * 0.5  # pacing actually waited


# ----------------------------------------------------------------------
# Invariant unit tests (synthetic outcomes, no server)
# ----------------------------------------------------------------------
METRICS_OK = {
    "uptime_seconds": 1.0, "counters": {"requests": 0}, "gauges": {},
    "cache": {}, "throughput": {}, "latency": {},
}


def _metrics(requests: int = 0, degraded: int = 0) -> dict:
    payload = dict(METRICS_OK)
    payload["counters"] = {
        "requests": requests, "requests_degraded": degraded,
    }
    return payload


def _outcome(**overrides) -> Outcome:
    base = dict(
        label="event 0", client=0, status=200, latency_s=0.01,
        sequences=1, ok_items=1, model_versions=[1],
    )
    base.update(overrides)
    return Outcome(**base)


def _result(outcomes, before=None, after=None) -> LoadTestResult:
    completed = sum(o.sequences for o in outcomes if o.status == 200)
    return LoadTestResult(
        outcomes, wall_s=1.0,
        metrics_before=before or _metrics(),
        metrics_after=after
        if after is not None else _metrics(requests=completed),
    )


def test_clean_outcomes_pass():
    result = _result([_outcome(label=f"event {i}") for i in range(5)])
    assert result.ok
    assert result.qps == 5.0


def test_transport_error_is_a_violation():
    result = _result([
        _outcome(),
        _outcome(label="event 1", status=0, transport_error="timeout", ok_items=0,
                 model_versions=[]),
    ])
    assert any("no HTTP response" in v for v in result.violations)


def test_unstructured_refusal_is_a_violation():
    shed = _outcome(label="event 1", status=503, refusal_reason="shed", ok_items=0,
                    model_versions=[])
    boom = _outcome(label="event 2", status=500, refusal_reason=None, ok_items=0,
                    model_versions=[])
    assert _result([_outcome(), shed]).ok
    result = _result([_outcome(), boom])
    assert any("envelope" in v for v in result.violations)


def test_non_deadline_item_error_is_a_violation():
    ok = _outcome(
        label="event 1", error_reasons=["deadline_exceeded"], ok_items=0,
    )
    assert _result([ok], after=_metrics(requests=1)).ok
    bad = _outcome(label="event 2", error_reasons=["bad_request"], ok_items=0)
    result = _result([_outcome(), bad], after=_metrics(requests=2))
    assert any("item errors" in v for v in result.violations)


def test_model_version_regression_is_a_violation():
    regressed = [
        _outcome(label="event 0", model_versions=[2]),
        _outcome(label="event 1", model_versions=[1]),
    ]
    result = _result(regressed)
    assert any("regression" in v for v in result.violations)
    # The same versions on *different* threads are fine (a swap lands
    # at different times per connection).
    parallel = [
        _outcome(label="event 0", client=0, model_versions=[2]),
        _outcome(label="event 1", client=1, model_versions=[1]),
    ]
    assert _result(parallel).ok


def test_requests_accounting_mismatch_is_a_violation():
    result = _result([_outcome()], after=_metrics(requests=5))
    assert any("accounting" in v for v in result.violations)


def test_deadline_refusals_count_as_engine_requests_shed_ones_do_not():
    """One error rule: the engine counts a request it refused on its
    deadline (504) like one it served; a shed 503 never reached it."""
    outcomes = [
        _outcome(label="event 0"),
        _outcome(label="event 1", status=504, ok_items=0, model_versions=[],
                 refusal_reason="deadline_exceeded"),
        _outcome(label="event 2", status=503, ok_items=0, model_versions=[],
                 refusal_reason="shed"),
    ]
    assert _result(outcomes, after=_metrics(requests=2)).ok
    result = _result(outcomes, after=_metrics(requests=1))
    assert any("accounting" in v for v in result.violations)


def test_degraded_accounting_mismatch_is_a_violation():
    degraded = _outcome(degraded_items=1)
    assert _result(
        [degraded], after=_metrics(requests=1, degraded=1)
    ).ok
    result = _result([degraded], after=_metrics(requests=1, degraded=0))
    assert any("requests_degraded" in v for v in result.violations)


def test_missing_metrics_schema_key_is_a_violation():
    broken = {"counters": {"requests": 1}}
    result = LoadTestResult(
        [_outcome()], wall_s=1.0, metrics_before=_metrics(),
        metrics_after=broken,
    )
    assert any("schema" in v for v in result.violations)


def test_config_validation():
    with pytest.raises(ValueError):
        LoadTestConfig(threads=0)
    with pytest.raises(ValueError):
        LoadTestConfig(pace_speedup=0.0)
