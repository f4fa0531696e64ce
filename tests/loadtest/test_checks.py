"""The serving checks on hand-made replies (no server)."""

import math

import pytest

from repro.loadtest import Outcome, Reply, checks


def _single(body, status=200):
    return checks.outcome_of(
        Reply(status, body, 0.01), "event 0", 0, "/recommend", {"user": 0}
    )


def test_a_batch_reply_folds_each_item():
    reply = Reply(200, {"results": [
        {"items": [1], "scores": [0.1], "degraded": True, "model_version": 2},
        {"reason": "deadline_exceeded", "model_version": 2},
    ]}, 0.01)
    outcome = checks.outcome_of(
        reply, "event 0", 0, "/recommend/batch", {"requests": [{}, {}]}
    )
    assert (outcome.sequences, outcome.ok_items, outcome.degraded_items) == (2, 1, 1)
    assert outcome.error_reasons == ["deadline_exceeded"]
    assert outcome.model_versions == [2, 2]
    assert checks.completeness([outcome]) == []


def test_a_refusal_and_a_non_recommendation_call_carry_no_items():
    refused = _single({"reason": "shed"}, status=503)
    assert (refused.refusal_reason, refused.ok_items) == ("shed", 0)
    reload = checks.outcome_of(
        Reply(200, {"status": "reloaded", "model_version": 2}, 0.3),
        "live_reload", 0, "/admin/reload", {},
    )
    assert (reload.sequences, reload.model_versions) == (0, [])
    assert checks.completeness([refused, reload]) == []
    assert checks.summarize([reload])["latency"]["max_ms"] == 0.0


def test_a_reply_answering_fewer_requests_than_it_carried_is_incomplete():
    reply = Reply(200, {"results": [{"items": [1], "scores": [0.1]}]}, 0.01)
    outcome = checks.outcome_of(
        reply, "event 0", 0, "/recommend/batch", {"requests": [{}, {}]}
    )
    (violation,) = checks.completeness([outcome])
    assert "different number of requests" in violation


@pytest.mark.parametrize(
    "answer, problem",
    [
        ({"items": [], "scores": []}, "no items"),
        ({"items": [3, 4], "scores": [0.5, math.nan]}, "non-finite scores"),
        ({"items": [3, 4], "scores": [0.5, math.inf]}, "non-finite scores"),
        ({"items": [3, 4], "scores": [0.5]}, "non-finite scores"),
        ({"items": [3], "scores": [0.5], "model_version": None}, "no model_version"),
    ],
    ids=["empty", "nan", "inf", "short-scores", "no-version"],
)
def test_a_malformed_answer_is_a_violation(answer, problem):
    answer = {"model_version": 1, **answer}
    outcome = _single({k: v for k, v in answer.items() if v is not None})
    (violation,) = checks.well_formed([outcome])
    assert "malformed" in violation and problem in violation
    assert checks.well_formed(
        [_single({"items": [3], "scores": [0.5], "model_version": 1})]
    ) == []


@pytest.mark.parametrize(
    "status, body, path",
    [
        (200, {"status": "ok"}, "/recommend/batch"),
        (200, {"results": ["not an answer"]}, "/recommend/batch"),
        (200, {"results": None}, "/recommend/batch"),
        (200, [1, 2], "/recommend"),
        (200, {"items": [1], "scores": ["x"], "model_version": 1}, "/recommend"),
        (200, {"items": [1], "scores": [0.1], "model_version": "v2"}, "/recommend"),
        (503, ["shed"], "/recommend"),
    ],
    ids=["no-results", "item-not-a-dict", "results-null", "body-a-list",
         "score-a-string", "version-not-a-number", "refusal-a-list"],
)
def test_a_reply_of_the_wrong_shape_is_a_violation_not_a_crash(status, body, path):
    payload = {"requests": [{}]} if path == "/recommend/batch" else {"user": 0}
    outcome = checks.outcome_of(Reply(status, body, 0.01), "event 0", 0, path, payload)
    (violation,) = checks.well_formed([outcome])
    assert "not the documented shape" in violation


def test_the_envelopes_are_the_callers():
    """On the wire a deadline may expire; in process (the shadow leg)
    no item may carry any reason."""
    outcome = Outcome("candidate", 0, 200, 0.0, sequences=1)
    checks.fold(outcome, [{"reason": "deadline_exceeded"}])
    assert checks.item_errors([outcome], checks.SERVING_ITEM_ERRORS) == []
    (violation,) = checks.item_errors([outcome], frozenset())
    assert "item errors" in violation
    refused = _single({"reason": "deadline_exceeded"}, status=504)
    assert checks.refusal_envelope([refused], frozenset({"deadline_exceeded"})) == []
    assert checks.refusal_envelope([refused], frozenset({"shed"})) != []
