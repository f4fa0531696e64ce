"""Engine + resilience policy integration: degrade, deadlines, reporting."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.runtime.faults import FaultInjector
from repro.serve.engine import RecommendationEngine
from repro.serve.requests import RecRequest, RequestError
from repro.serve.resilience import (
    BREAKER_OPEN,
    BreakerConfig,
    DeadlineExceeded,
    PopularityFallback,
    ResilienceConfig,
    ResiliencePolicy,
)

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def sasrec(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    return model


def make_engine(sasrec, tiny_dataset, **kwargs):
    kwargs.setdefault("max_batch_size", 8)
    kwargs.setdefault("cache_size", 32)
    return RecommendationEngine(sasrec, tiny_dataset, **kwargs)


def fast_policy(clock=None, **breaker_overrides):
    breaker = BreakerConfig(
        **{
            "window": 8,
            "min_calls": 2,
            "failure_threshold": 0.5,
            "reset_timeout_s": 60.0,
            "half_open_probes": 1,
            **breaker_overrides,
        }
    )
    return ResiliencePolicy(
        ResilienceConfig(breaker=breaker),
        clock=clock if clock is not None else FakeClock(),
    )


class TestHealthyPath:
    def test_resilience_default_on(self, sasrec, tiny_dataset):
        engine = make_engine(sasrec, tiny_dataset)
        assert engine.policy is not None
        result = engine.recommend(user=0, k=10)
        assert not result.degraded
        assert result.model_version == 1

    def test_bit_identical_with_and_without_policy(self, sasrec, tiny_dataset):
        resilient = make_engine(sasrec, tiny_dataset)
        plain = make_engine(sasrec, tiny_dataset, resilience=None)
        assert plain.policy is None
        for user in (0, 3, 7):
            a = resilient.recommend(user=user, k=10)
            b = plain.recommend(user=user, k=10)
            assert np.array_equal(a.items, b.items)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_resilience_counters_pre_registered(self, sasrec, tiny_dataset):
        engine = make_engine(sasrec, tiny_dataset)
        counters = engine.metrics.counters
        for name in (
            "requests_degraded",
            "fallback_cache",
            "fallback_popularity",
            "deadline_exceeded",
            "encode_errors",
            "model_swaps",
        ):
            assert counters[name] == 0
        assert engine.metrics.snapshot()["gauges"]["breaker_state"] == 0


class TestDegradedMode:
    def test_encoder_failure_degrades_to_popularity(self, sasrec, tiny_dataset):
        faults = FaultInjector(encode_failure_rate=1.0)
        engine = make_engine(
            sasrec, tiny_dataset, resilience=fast_policy(), faults=faults
        )
        result = engine.recommend(sequence=[1, 2, 3], k=5)
        assert result.degraded
        assert result.fallback == "popularity"
        assert result.items.size == 5
        assert engine.metrics.counters["encode_errors"] == 1
        assert engine.metrics.counters["fallback_popularity"] == 1
        assert engine.metrics.counters["requests_degraded"] == 1

    def test_popularity_answers_match_fallback_ranking(self, sasrec, tiny_dataset):
        faults = FaultInjector(encode_failure_rate=1.0)
        engine = make_engine(
            sasrec, tiny_dataset, resilience=fast_policy(), faults=faults
        )
        result = engine.recommend(sequence=[4], k=5, exclude_seen=False)
        row = PopularityFallback(tiny_dataset).score_row().copy()
        row[0] = -np.inf
        expected = np.argsort(-row)[:5]
        assert np.array_equal(result.items, expected)

    def test_breaker_opens_after_repeated_failures(self, sasrec, tiny_dataset):
        faults = FaultInjector(encode_failure_rate=1.0)
        policy = fast_policy()
        engine = make_engine(
            sasrec, tiny_dataset, resilience=policy, faults=faults
        )
        engine.recommend(sequence=[1], k=3)
        engine.recommend(sequence=[2], k=3)
        assert policy.breaker.state == BREAKER_OPEN
        assert engine.metrics.counters["breaker_transitions"] == 1
        assert engine.metrics.snapshot()["gauges"]["breaker_state"] == 1
        # With the breaker open the encoder is not touched at all.
        errors_before = engine.metrics.counters["encode_errors"]
        result = engine.recommend(sequence=[3], k=3)
        assert result.fallback == "popularity"
        assert engine.metrics.counters["encode_errors"] == errors_before

    def test_cache_tier_served_while_breaker_open(self, sasrec, tiny_dataset):
        faults = FaultInjector()
        policy = fast_policy()
        engine = make_engine(
            sasrec, tiny_dataset, resilience=policy, faults=faults
        )
        healthy = engine.recommend(user=0, k=5)  # populates the cache
        faults.encode_failure_rate = 1.0
        engine.recommend(sequence=[1], k=3)
        engine.recommend(sequence=[2], k=3)
        assert policy.breaker.state == BREAKER_OPEN
        cached = engine.recommend(user=0, k=5)
        assert cached.degraded
        assert cached.fallback == "cache"
        # Tier-1 fallback is exact: same representation, same answer.
        assert np.array_equal(healthy.items, cached.items)
        assert engine.metrics.counters["fallback_cache"] == 1

    def test_legacy_engine_without_policy_raises(self, sasrec, tiny_dataset):
        faults = FaultInjector(encode_failure_rate=1.0)
        engine = make_engine(
            sasrec, tiny_dataset, resilience=None, faults=faults
        )
        with pytest.raises(RuntimeError, match="injected encoder failure"):
            engine.recommend(sequence=[1, 2], k=3)


class TestDeadlines:
    def test_expired_deadline_raises_on_single_path(self, sasrec, tiny_dataset):
        clock = FakeClock()
        engine = make_engine(sasrec, tiny_dataset, resilience=fast_policy(clock))
        request = RecRequest(user=0, deadline_ms=10.0)
        with pytest.raises(DeadlineExceeded):
            engine.recommend_batch([request], started=clock.now - 1.0)
        assert engine.metrics.counters["deadline_exceeded"] == 1

    def test_expired_deadline_reported_per_item(self, sasrec, tiny_dataset):
        clock = FakeClock()
        engine = make_engine(sasrec, tiny_dataset, resilience=fast_policy(clock))
        requests = [
            RecRequest(user=0, deadline_ms=10.0),
            RecRequest(user=1),  # no deadline: must still be served
        ]
        results = engine.recommend_batch(
            requests, started=clock.now - 1.0, on_error="report"
        )
        assert results[0].error == "deadline_exceeded"
        assert results[0].items.size == 0
        assert results[0].to_dict()["reason"] == "deadline_exceeded"
        assert results[1].error is None
        assert results[1].items.size == 10

    def test_default_deadline_from_config(self, sasrec, tiny_dataset):
        clock = FakeClock()
        policy = ResiliencePolicy(
            ResilienceConfig(default_deadline_ms=10.0), clock=clock
        )
        engine = make_engine(sasrec, tiny_dataset, resilience=policy)
        with pytest.raises(DeadlineExceeded):
            engine.recommend_batch(
                [RecRequest(user=0)], started=clock.now - 1.0
            )

    def test_tight_deadline_degrades_instead_of_encoding(
        self, sasrec, tiny_dataset
    ):
        clock = FakeClock()
        policy = fast_policy(clock)
        policy.encode_estimate_s = 10.0  # encoding "costs" 10s
        engine = make_engine(sasrec, tiny_dataset, resilience=policy)
        encoded_before = engine.metrics.counters.get("sequences_encoded", 0)
        result = engine.recommend_batch(
            [RecRequest(sequence=[5, 6], k=5, deadline_ms=100.0)]
        )[0]
        assert result.degraded
        assert result.fallback == "popularity"
        assert (
            engine.metrics.counters.get("sequences_encoded", 0)
            == encoded_before
        )


class TestReportMode:
    def test_bad_request_reported_not_raised(self, sasrec, tiny_dataset):
        engine = make_engine(sasrec, tiny_dataset)
        requests = [
            RecRequest(user=tiny_dataset.num_users + 7),  # out of range
            RecRequest(user=0),
        ]
        results = engine.recommend_batch(requests, on_error="report")
        assert results[0].error == "bad_request"
        assert "out of range" in results[0].detail
        assert results[1].error is None

    def test_raise_mode_still_raises(self, sasrec, tiny_dataset):
        engine = make_engine(sasrec, tiny_dataset)
        with pytest.raises(RequestError, match="out of range"):
            engine.recommend_batch(
                [RecRequest(user=tiny_dataset.num_users)], on_error="raise"
            )

    def test_invalid_mode_rejected(self, sasrec, tiny_dataset):
        engine = make_engine(sasrec, tiny_dataset)
        with pytest.raises(ValueError, match="on_error"):
            engine.recommend_batch([RecRequest(user=0)], on_error="ignore")


class TestFaultSites:
    def test_slow_encode_delay_applied(self, sasrec, tiny_dataset):
        faults = FaultInjector().slow_encode(at=1, seconds=0.0)
        engine = make_engine(sasrec, tiny_dataset, faults=faults)
        engine.recommend(user=0, k=5)
        assert ("encode_slow", 1) in faults.triggered

    def test_scheduled_encode_failure(self, sasrec, tiny_dataset):
        faults = FaultInjector().fail_encode(at=1)
        engine = make_engine(
            sasrec, tiny_dataset, resilience=fast_policy(), faults=faults
        )
        first = engine.recommend(sequence=[1, 2], k=3)
        assert first.degraded  # the scheduled failure hit
        second = engine.recommend(sequence=[1, 2], k=3)
        assert not second.degraded  # only occurrence 1 was scheduled
        assert ("encode", 1) in faults.triggered
