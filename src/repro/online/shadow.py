"""Shadow evaluation + the promotion gate.

Before a fine-tuned candidate reaches the serving engine it must prove
itself on traffic the fine-tuner never saw: the ingestor's held-out
split.  Two legs run, both offline and deterministic:

* **Ranking leg** — :class:`~repro.eval.evaluator.Evaluator` ranks each
  held-out user's leave-one-out target under the baseline (currently
  serving) and candidate weights, yielding HR@k / NDCG@k deltas.
* **Replay leg** — the held-out sequences are replayed as requests
  through two in-process :class:`~repro.serve.engine.
  RecommendationEngine` instances (old vs new weights, fail-hard
  resilience off so nothing masks an error), judged by the serving
  checks of :mod:`repro.loadtest.checks`: every request answered, no
  item error at all, finite-scored items in every answer.
  Top-k churn between the two engines is reported so operators can see
  how much a promotion would shuffle live lists.

The gate then refuses or promotes and always records why — refusal
reasons are machine-readable constants (``REFUSAL_REASONS``) mirroring
the serving layer's error-envelope idiom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.eval.evaluator import Evaluator
from repro.loadtest import checks
from repro.loadtest.checks import Outcome
from repro.serve.engine import RecommendationEngine
from repro.serve.requests import RecRequest

__all__ = [
    "GateConfig",
    "GateDecision",
    "PromotionGate",
    "ShadowReport",
    "REFUSAL_REASONS",
    "shadow_evaluate",
]

#: Machine-readable refusal reasons the gate can record.
REASON_INSUFFICIENT_DATA = "insufficient_data"
REASON_INSUFFICIENT_SHADOW = "insufficient_shadow_traffic"
REASON_NO_TRAINABLE_DATA = "no_trainable_data"
REASON_NON_FINITE = "non_finite_metrics"
REASON_REGRESSION = "metric_regression"
REASON_INVARIANT = "shadow_invariant_violation"
REASON_SWAP_FAILED = "swap_failed"
REFUSAL_REASONS = frozenset(
    {
        REASON_INSUFFICIENT_DATA,
        REASON_INSUFFICIENT_SHADOW,
        REASON_NO_TRAINABLE_DATA,
        REASON_NON_FINITE,
        REASON_REGRESSION,
        REASON_INVARIANT,
        REASON_SWAP_FAILED,
    }
)


@dataclass
class GateConfig:
    """Promotion-gate thresholds.

    ``epsilon`` is the tolerated per-metric regression: the candidate
    promotes iff ``candidate >= baseline - epsilon`` on every gated
    metric.  ``epsilon=0`` demands no regression at all; a large
    epsilon (e.g. ``1.0`` — metrics live in ``[0, 1]``) turns the
    metric check into a finiteness check, which is how the CI smoke
    keeps its first round deterministic.
    """

    metrics: tuple[str, ...] = ("HR@10", "NDCG@10")
    epsilon: float = 0.0
    #: Held-out users the ranking leg needs before deltas mean anything.
    min_shadow_users: int = 8
    #: Fresh training sequences a round must ingest to justify a
    #: candidate at all.
    min_new_sequences: int = 4


@dataclass
class ShadowReport:
    """Old-vs-new comparison on held-out stream traffic."""

    baseline: dict[str, float]
    candidate: dict[str, float]
    shadow_users: int
    replay: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def deltas(self) -> dict[str, float]:
        return {
            name: self.candidate[name] - self.baseline[name]
            for name in self.candidate
            if name in self.baseline
        }

    def to_dict(self) -> dict:
        return {
            "baseline": dict(self.baseline),
            "candidate": dict(self.candidate),
            "deltas": self.deltas,
            "shadow_users": self.shadow_users,
            "replay": dict(self.replay),
            "violations": list(self.violations),
        }


@dataclass
class GateDecision:
    """The gate's verdict for one candidate."""

    promote: bool
    reason: str
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "promote": self.promote,
            "reason": self.reason,
            "detail": self.detail,
        }


def _replay_requests(
    shadow_dataset: SequenceDataset, k: int, max_requests: int
) -> list[RecRequest]:
    """Held-out sessions as serving requests (deterministic order)."""
    requests: list[RecRequest] = []
    for user in shadow_dataset.evaluation_users("test"):
        sequence = shadow_dataset.full_sequence(int(user), split="test")
        if len(sequence) == 0:
            continue
        requests.append(RecRequest(sequence=tuple(int(i) for i in sequence), k=k))
        if len(requests) >= max_requests:
            break
    return requests


def _replay_leg(
    baseline_model,
    candidate_model,
    shadow_dataset: SequenceDataset,
    serve_dataset: SequenceDataset,
    k: int,
    max_requests: int,
) -> tuple[dict, list[str]]:
    """Replay held-out traffic through both engines; judge each with the
    serving checks.  In process there is no refusal to allow: every
    request must be answered with finite-scored items."""
    requests = _replay_requests(shadow_dataset, k, max_requests)
    replay = {"requests": len(requests), "answered": 0, "churn": None}
    violations: list[str] = []
    if not requests:
        return replay, violations
    served: dict[str, list[np.ndarray]] = {}
    for tag, model in (("baseline", baseline_model), ("candidate", candidate_model)):
        engine = RecommendationEngine(
            model,
            serve_dataset,
            cache_size=1,
            resilience=None,
        )
        try:
            results = engine.recommend_batch(list(requests), on_error="report")
        finally:
            engine.close()
        outcome = Outcome(tag, 0, 200, 0.0, sequences=len(requests))
        checks.fold(outcome, [result.to_dict() for result in results])
        violations += [
            f"{tag}: {violation}"
            for violation in checks.completeness([outcome])
            + checks.item_errors([outcome], frozenset())
            + checks.well_formed([outcome])
        ]
        served[tag] = [
            np.asarray(result.items if result.error is None else [], dtype=np.int64)
            for result in results
        ]
    replay["answered"] = sum(len(items) > 0 for items in served["baseline"])
    overlaps = [
        len(set(old.tolist()) & set(new.tolist())) / float(min(len(old), len(new)))
        for old, new in zip(served["baseline"], served["candidate"])
        if len(old) and len(new)
    ]
    if overlaps:
        replay["churn"] = float(1.0 - float(np.mean(overlaps)))
    return replay, violations


def shadow_evaluate(
    baseline_model,
    candidate_model,
    shadow_dataset: SequenceDataset,
    serve_dataset: SequenceDataset,
    ks: tuple[int, ...] = (5, 10),
    k: int = 10,
    max_requests: int = 64,
    obs=None,
    round_index: int | None = None,
) -> ShadowReport:
    """Run both shadow legs and assemble the report."""
    shadow_users = int(len(shadow_dataset.evaluation_users("test")))
    if shadow_users > 0:
        evaluator = Evaluator(
            shadow_dataset, split="test", ks=ks, batch_size=128
        )
        baseline = {
            name: float(value)
            for name, value in evaluator.evaluate(baseline_model).metrics.items()
        }
        candidate = {
            name: float(value)
            for name, value in evaluator.evaluate(candidate_model).metrics.items()
        }
    else:
        baseline = {}
        candidate = {}
    replay, violations = _replay_leg(
        baseline_model,
        candidate_model,
        shadow_dataset,
        serve_dataset,
        k=k,
        max_requests=max_requests,
    )
    report = ShadowReport(
        baseline=baseline,
        candidate=candidate,
        shadow_users=shadow_users,
        replay=replay,
        violations=violations,
    )
    if obs is not None:
        obs.event(
            "shadow_eval",
            round=round_index,
            shadow_users=shadow_users,
            baseline=baseline,
            candidate=candidate,
            deltas=report.deltas,
            churn=replay.get("churn"),
            violations=len(violations),
        )
    return report


class PromotionGate:
    """Decides whether a candidate version may reach serving."""

    def __init__(self, config: GateConfig | None = None) -> None:
        self.config = config if config is not None else GateConfig()

    def precheck(
        self, new_sequences: int, shadow_users: int
    ) -> GateDecision | None:
        """Cheap refusals that skip training entirely; None = proceed."""
        if new_sequences < self.config.min_new_sequences:
            return GateDecision(
                promote=False,
                reason=REASON_INSUFFICIENT_DATA,
                detail=(
                    f"round ingested {new_sequences} training sequences; "
                    f"gate requires {self.config.min_new_sequences}"
                ),
            )
        if shadow_users < self.config.min_shadow_users:
            return GateDecision(
                promote=False,
                reason=REASON_INSUFFICIENT_SHADOW,
                detail=(
                    f"{shadow_users} held-out shadow users; gate requires "
                    f"{self.config.min_shadow_users}"
                ),
            )
        return None

    def decide(self, report: ShadowReport) -> GateDecision:
        """The full verdict, given a completed shadow report."""
        if report.shadow_users < self.config.min_shadow_users:
            return GateDecision(
                promote=False,
                reason=REASON_INSUFFICIENT_SHADOW,
                detail=(
                    f"{report.shadow_users} held-out shadow users; gate "
                    f"requires {self.config.min_shadow_users}"
                ),
            )
        if report.violations:
            return GateDecision(
                promote=False,
                reason=REASON_INVARIANT,
                detail="; ".join(report.violations[:4]),
            )
        for name in self.config.metrics:
            base = report.baseline.get(name)
            cand = report.candidate.get(name)
            if base is None or cand is None:
                return GateDecision(
                    promote=False,
                    reason=REASON_NON_FINITE,
                    detail=f"metric {name} missing from the shadow report",
                )
            if not (math.isfinite(base) and math.isfinite(cand)):
                return GateDecision(
                    promote=False,
                    reason=REASON_NON_FINITE,
                    detail=f"{name}: baseline={base!r} candidate={cand!r}",
                )
            if cand < base - self.config.epsilon:
                return GateDecision(
                    promote=False,
                    reason=f"{REASON_REGRESSION}:{name}",
                    detail=(
                        f"{name} fell {base - cand:.6f} "
                        f"(baseline {base:.6f} → candidate {cand:.6f}, "
                        f"epsilon {self.config.epsilon})"
                    ),
                )
        return GateDecision(promote=True, reason="gate_passed")
