"""Promotion-gate edge cases + shadow evaluation legs."""

import math

import numpy as np
import pytest

from repro.online import (
    GateConfig,
    PromotionGate,
    ReplayBuffer,
    ShadowReport,
    shadow_evaluate,
)

from .conftest import random_sequences


def _report(baseline=None, candidate=None, users=20, violations=()):
    return ShadowReport(
        baseline=baseline if baseline is not None else {"HR@10": 0.5, "NDCG@10": 0.3},
        candidate=candidate if candidate is not None else {"HR@10": 0.5, "NDCG@10": 0.3},
        shadow_users=users,
        violations=list(violations),
    )


# ----------------------------------------------------------------------
# Gate decisions
# ----------------------------------------------------------------------
def test_prechecks_refuse_cheaply():
    gate = PromotionGate(GateConfig(min_new_sequences=10, min_shadow_users=5))
    starved = gate.precheck(new_sequences=3, shadow_users=50)
    assert starved is not None and starved.reason == "insufficient_data"
    thin = gate.precheck(new_sequences=50, shadow_users=2)
    assert thin is not None and thin.reason == "insufficient_shadow_traffic"
    assert gate.precheck(new_sequences=50, shadow_users=50) is None


def test_degraded_shadow_traffic_refuses():
    gate = PromotionGate(GateConfig(min_shadow_users=8))
    decision = gate.decide(_report(users=3))
    assert not decision.promote
    assert decision.reason == "insufficient_shadow_traffic"


def test_nan_metrics_refuse_promotion():
    gate = PromotionGate()
    decision = gate.decide(
        _report(candidate={"HR@10": float("nan"), "NDCG@10": 0.3})
    )
    assert not decision.promote
    assert decision.reason == "non_finite_metrics"
    # An infinite baseline is just as unjudgeable.
    decision = gate.decide(
        _report(baseline={"HR@10": math.inf, "NDCG@10": 0.3})
    )
    assert not decision.promote
    assert decision.reason == "non_finite_metrics"


def test_missing_gated_metric_refuses():
    gate = PromotionGate(GateConfig(metrics=("HR@10", "NDCG@10")))
    decision = gate.decide(_report(candidate={"HR@10": 0.5}))
    assert not decision.promote
    assert decision.reason == "non_finite_metrics"


def test_zero_delta_promotes_at_epsilon_zero():
    """A bit-identical candidate has exactly zero delta — promotable."""
    gate = PromotionGate(GateConfig(epsilon=0.0))
    decision = gate.decide(_report())
    assert decision.promote
    assert decision.reason == "gate_passed"


def test_regression_beyond_epsilon_refuses():
    gate = PromotionGate(GateConfig(epsilon=0.01))
    decision = gate.decide(
        _report(candidate={"HR@10": 0.48, "NDCG@10": 0.3})
    )
    assert not decision.promote
    assert decision.reason.startswith("metric_regression:")
    assert "HR@10" in decision.reason
    # Within epsilon the same regression is tolerated.
    tolerant = PromotionGate(GateConfig(epsilon=0.05))
    assert tolerant.decide(
        _report(candidate={"HR@10": 0.48, "NDCG@10": 0.3})
    ).promote


def test_invariant_violations_refuse():
    gate = PromotionGate()
    decision = gate.decide(_report(violations=["candidate: empty recommendation list"]))
    assert not decision.promote
    assert decision.reason == "shadow_invariant_violation"


# ----------------------------------------------------------------------
# Shadow evaluation legs
# ----------------------------------------------------------------------
def test_bit_identical_model_yields_zero_delta(tiny_dataset, tiny_model):
    holdout = ReplayBuffer(64)
    holdout.extend(random_sequences(20, tiny_dataset.num_items, min_len=5))
    shadow_ds = holdout.as_dataset(tiny_dataset, split=True)
    report = shadow_evaluate(
        tiny_model, tiny_model, shadow_ds, tiny_dataset, max_requests=16
    )
    assert report.shadow_users == 20
    assert report.violations == []
    for name, delta in report.deltas.items():
        assert delta == 0.0, f"{name} drifted on identical weights"
    # Identical weights ⇒ identical lists ⇒ no churn.
    assert report.replay["churn"] == 0.0
    assert report.replay["answered"] == report.replay["requests"]
    gate = PromotionGate(GateConfig(epsilon=0.0))
    assert gate.decide(report).promote


def test_different_weights_report_churn(tiny_dataset, tiny_model, tiny_trainer):
    # Freshly built models share the init seed, so perturb the trainer
    # to make the weights genuinely disagree.
    rng = np.random.default_rng(3)
    tiny_trainer.load_state_dict(
        {
            name: values + rng.normal(scale=0.1, size=values.shape)
            if np.issubdtype(values.dtype, np.floating)
            else values
            for name, values in tiny_trainer.state_dict().items()
        }
    )
    holdout = ReplayBuffer(64)
    holdout.extend(random_sequences(20, tiny_dataset.num_items, min_len=5))
    shadow_ds = holdout.as_dataset(tiny_dataset, split=True)
    report = shadow_evaluate(
        tiny_model, tiny_trainer, shadow_ds, tiny_dataset, max_requests=16
    )
    # Independently initialized models disagree: churn is measurable.
    assert report.replay["churn"] is not None
    assert 0.0 < report.replay["churn"] <= 1.0
    assert report.violations == []


def test_a_candidate_that_answers_nothing_is_refused(
    tiny_dataset, tiny_model, tiny_trainer
):
    """A NaN position table leaves every representation NaN: the engine
    answers each request with no items, which the serving checks call
    malformed, and the gate refuses."""
    tiny_trainer.load_state_dict(
        {
            name: np.full_like(values, np.nan) if "position" in name else values
            for name, values in tiny_trainer.state_dict().items()
        }
    )
    holdout = ReplayBuffer(64)
    holdout.extend(random_sequences(20, tiny_dataset.num_items, min_len=5))
    shadow_ds = holdout.as_dataset(tiny_dataset, split=True)
    report = shadow_evaluate(
        tiny_model, tiny_trainer, shadow_ds, tiny_dataset, max_requests=16
    )
    (violation,) = report.violations
    assert violation.startswith("candidate: 16 malformed answers")
    assert "no items" in violation
    assert report.replay["answered"] == 16  # the baseline answered
    decision = PromotionGate().decide(report)
    assert (decision.promote, decision.reason) == (False, "shadow_invariant_violation")


def test_empty_holdout_reports_zero_users(tiny_dataset, tiny_model):
    shadow_ds = ReplayBuffer(4).as_dataset(tiny_dataset, split=True)
    report = shadow_evaluate(
        tiny_model, tiny_model, shadow_ds, tiny_dataset
    )
    assert report.shadow_users == 0
    assert report.baseline == {} and report.candidate == {}
    decision = PromotionGate().decide(report)
    assert not decision.promote
    assert decision.reason == "insufficient_shadow_traffic"


def test_shadow_evaluate_deterministic(tiny_dataset, tiny_model, tiny_trainer):
    holdout = ReplayBuffer(64)
    holdout.extend(random_sequences(16, tiny_dataset.num_items, min_len=5))
    shadow_ds = holdout.as_dataset(tiny_dataset, split=True)

    def run():
        report = shadow_evaluate(
            tiny_model, tiny_trainer, shadow_ds, tiny_dataset, max_requests=12
        )
        return (report.baseline, report.candidate, report.replay["churn"])

    assert run() == run()
