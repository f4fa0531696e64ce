"""The serving invariants, written once.

Every driver of the serving stack (``repro loadtest``, ``repro chaos``,
the reload-storm test and the online shadow replay leg) turns each call
into one :class:`Outcome`; each check takes a list of them and returns
its violations as sentences, none when the invariant held.
docs/SERVING.md "Load testing" lists which driver applies which check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.obs.registry import Histogram
from repro.serve.resilience import REASON_DEADLINE

__all__ = [
    "METRICS_SCHEMA_KEYS",
    "Outcome",
    "SERVING_ITEM_ERRORS",
    "completeness",
    "fold",
    "item_errors",
    "metrics_accounting",
    "metrics_schema",
    "monotone_versions",
    "outcome_of",
    "refusal_envelope",
    "summarize",
    "well_formed",
]

#: The one reason an item of a 200 reply to valid traffic may carry.
SERVING_ITEM_ERRORS = frozenset({REASON_DEADLINE})

#: ``/metrics`` keys the schema invariant requires (docs/SERVING.md).
METRICS_SCHEMA_KEYS = (
    "uptime_seconds", "counters", "gauges", "cache", "throughput", "latency",
)


@dataclass
class Outcome:
    """What one call to the server observed."""

    #: What the driver calls it: a trace event (``event 17``) or a
    #: chaos phase (``burst``).
    label: str
    #: The connection that sent it; versions are monotone per client.
    client: int
    #: HTTP status; 0 when no usable reply arrived.
    status: int
    latency_s: float
    #: Recommendation requests it carried (0 for a non-recommendation
    #: call such as ``/admin/reload``).
    sequences: int
    ok_items: int = 0
    degraded_items: int = 0
    error_reasons: list = field(default_factory=list)
    #: What is wrong with each malformed answer in the reply.
    malformed: list = field(default_factory=list)
    refusal_reason: str | None = None
    model_versions: list = field(default_factory=list)
    transport_error: str | None = None


def fold(outcome: Outcome, items: list[dict]) -> None:
    """Fold the items of a 200 reply (each a ``Recommendation.to_dict()``
    shape) into ``outcome``."""
    for item in items:
        reason = item.get("reason")
        if reason is not None:
            outcome.error_reasons.append(reason)
        else:
            outcome.ok_items += 1
            outcome.degraded_items += bool(item.get("degraded"))
            listed, scores = item.get("items") or [], item.get("scores") or []
            if not listed:
                outcome.malformed.append("no items")
            elif len(scores) != len(listed) or not all(map(math.isfinite, scores)):
                outcome.malformed.append("missing or non-finite scores")
            if "model_version" not in item:
                outcome.malformed.append("no model_version")
        if "model_version" in item:
            outcome.model_versions.append(int(item["model_version"]))


def outcome_of(reply, label: str, client: int, path: str, payload) -> Outcome:
    """One :class:`~repro.loadtest.client.Reply` to ``path`` as an outcome.

    ``/recommend`` answers one request with one item, ``/recommend/batch``
    each of ``payload["requests"]`` with one of ``"results"``; any other
    path carries no recommendation request.  A reply whose body is not
    the documented shape records a :attr:`Outcome.malformed` entry."""
    if path == "/recommend/batch":
        sequences = len(payload["requests"])
    else:
        sequences = int(path == "/recommend")
    outcome = Outcome(label, client, reply.status, reply.latency_s, sequences,
                      transport_error=reply.error)
    if reply.error is not None:
        return outcome
    try:
        if reply.status != 200:
            outcome.refusal_reason = reply.body.get("reason")
        elif sequences:
            fold(outcome, reply.body["results"] if path == "/recommend/batch"
                 else [reply.body])
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        # A body of the wrong shape is the server's fault: a violation
        # of well_formed, not a crash of the driver judging it.
        outcome.malformed.append(
            f"reply is not the documented shape ({type(error).__name__}: {error})"
        )
    return outcome


def _count(found: list, what: str) -> list[str]:
    """``found`` (one tuple per offence) as at most one violation."""
    return [f"{len(found)} {what} (first: {found[0]})"] if found else []


def completeness(outcomes: list[Outcome]) -> list[str]:
    """Every call got a reply, and a reply answers every request it carried."""
    dropped = [(o.label, o.transport_error) for o in outcomes if o.transport_error]
    short = [
        (o.label, o.ok_items + len(o.error_reasons), o.sequences)
        for o in outcomes
        if o.status == 200 and not o.transport_error
        and o.ok_items + len(o.error_reasons) != o.sequences
    ]
    return _count(dropped, "calls got no HTTP response") + _count(
        short, "replies answered a different number of requests than they "
        "carried (label, answered, carried)"
    )


def refusal_envelope(outcomes: list[Outcome], allowed: frozenset) -> list[str]:
    """Every non-200 carries a refusal reason in ``allowed`` (on valid
    traffic, :data:`~repro.serve.resilience.REFUSAL_REASONS`)."""
    bad = [
        (o.label, o.status, o.refusal_reason)
        for o in outcomes
        if not o.transport_error and o.status != 200
        and o.refusal_reason not in allowed
    ]
    return _count(bad, f"non-200 replies outside the {sorted(allowed)} envelope")


def item_errors(outcomes: list[Outcome], allowed: frozenset) -> list[str]:
    """No item of a 200 reply carries a reason outside ``allowed`` (on
    valid traffic, :data:`SERVING_ITEM_ERRORS`)."""
    bad = [
        (o.label, reason)
        for o in outcomes
        for reason in o.error_reasons
        if reason not in allowed
    ]
    return _count(bad, f"item errors other than {sorted(allowed)} on valid traffic")


def monotone_versions(outcomes: list[Outcome]) -> list[str]:
    """Each client sees a non-decreasing ``model_version``: a reload never
    serves stale weights after new ones were visible."""
    by_client: dict[int, list[int]] = {}
    for outcome in outcomes:  # each client's outcomes are in its send order
        by_client.setdefault(outcome.client, []).extend(outcome.model_versions)
    return [
        f"client {client} observed a model_version regression: {versions}"
        for client, versions in by_client.items()
        if any(b < a for a, b in zip(versions, versions[1:]))
    ]


def well_formed(outcomes: list[Outcome]) -> list[str]:
    """Every answer has items, finite scores and a ``model_version``, and
    every reply has the documented shape."""
    bad = [(o.label, problem) for o in outcomes for problem in o.malformed]
    return _count(bad, "malformed answers")


def metrics_accounting(outcomes: list[Outcome], before: dict,
                       after: dict) -> list[str]:
    """Between the ``/metrics`` snapshots ``before`` and ``after``, the
    engine's ``requests`` counter moved by exactly the sequences it
    answered (served, or refused on their deadline; a shed request never
    reaches it) and ``requests_degraded`` by exactly the degraded items
    clients saw: the metrics cannot silently drop or invent work."""
    seen = {
        "requests": sum(
            o.sequences for o in outcomes
            if o.status == 200 or o.refusal_reason == REASON_DEADLINE
        ),
        "requests_degraded": sum(o.degraded_items for o in outcomes),
    }
    violations = []
    for name, count in seen.items():
        moved = after.get("counters", {}).get(name, 0) - before.get(
            "counters", {}).get(name, 0)
        if moved != count:
            violations.append(
                f"metrics accounting: '{name}' moved by {moved} but "
                f"clients saw {count}"
            )
    return violations


def metrics_schema(snapshot: dict) -> list[str]:
    """``/metrics`` keeps its documented keys."""
    missing = [key for key in METRICS_SCHEMA_KEYS if key not in snapshot]
    return [f"/metrics schema is missing keys {missing}"] if missing else []


def summarize(outcomes: list[Outcome]) -> dict:
    """Status, refusal and item-error histograms, degraded items and
    latency percentiles (over answered recommendation calls)."""
    latency = Histogram()
    for outcome in outcomes:
        if outcome.status == 200 and outcome.sequences:
            latency.record(outcome.latency_s)
    return {
        "statuses": dict(Counter(str(o.status) for o in outcomes)),
        "refusals": dict(Counter(o.refusal_reason for o in outcomes
                                 if o.refusal_reason)),
        "item_errors": dict(Counter(r for o in outcomes for r in o.error_reasons)),
        "degraded_items": sum(o.degraded_items for o in outcomes),
        "latency": latency.summary(),
    }
