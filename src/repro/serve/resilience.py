"""Serving resilience primitives: deadlines, shedding, breaking, fallback.

``repro.serve`` (PR 2) assumed a healthy world: every request waits as
long as scoring takes, every encode succeeds, and the only defence
against overload is an exception that surfaces as HTTP 500.  This
module supplies the missing discipline, mirroring what
:mod:`repro.runtime` did for training:

* :class:`Deadline` — a per-request latency budget.  Requests carry
  ``deadline_ms`` (or inherit a server default); work that cannot
  finish inside the budget is degraded or refused instead of queued
  forever.
* :class:`AdmissionController` — bounded concurrent admissions in the
  HTTP front-end.  Beyond capacity, requests are *shed*: a structured
  503 with a ``Retry-After`` hint and a ``requests_shed`` counter,
  never an anonymous 500.
* :class:`CircuitBreaker` — a classic closed/open/half-open breaker
  around encoder scoring, tripping on failure rate or slow calls over
  a sliding window.  While open, requests are served from the fallback
  chain instead of hammering a failing encoder.
* :class:`PopularityFallback` — the cheapest useful answer: global
  popularity scores (the :class:`repro.models.pop.Pop` baseline),
  served when the encoder is unavailable and the representation cache
  has no entry for the sequence.  A degraded answer beats no answer.
* :class:`ResiliencePolicy` — bundles the above with an EWMA estimate
  of encode cost so the engine can predict whether an encode would
  blow a deadline.

Every component takes an injectable monotonic ``clock`` so the state
machines are unit-testable with a fake clock (see
``tests/serve/test_resilience.py``).  Reason codes returned to clients
are machine-readable (:data:`REASON_SHED`, :data:`REASON_DEADLINE`,
...); the decision table lives in ``docs/SERVING.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "PopularityFallback",
    "ResilienceConfig",
    "ResiliencePolicy",
    "ServingUnavailable",
    "ShedRequest",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "REASON_BAD_REQUEST",
    "REASON_DEADLINE",
    "REASON_SHED",
    "REFUSAL_REASONS",
]

# Machine-readable reason codes for structured error responses.
REASON_BAD_REQUEST = "bad_request"
REASON_SHED = "shed"
REASON_DEADLINE = "deadline_exceeded"

#: Reason codes that are *legitimate refusals* under load: shedding
#: and blown deadlines.  The load-test harness
#: (:mod:`repro.loadtest`) allows non-200 responses carrying these and
#: fails the run on anything else (``internal``, unexplained statuses).
REFUSAL_REASONS = frozenset({REASON_SHED, REASON_DEADLINE})

# Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Numeric gauge encoding of breaker states for ``/metrics``.
BREAKER_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_OPEN: 1, BREAKER_HALF_OPEN: 2}


class ServingUnavailable(RuntimeError):
    """Base for refusals the server maps to structured 5xx JSON.

    ``status`` and ``reason`` become the HTTP status code and the
    machine-readable ``"reason"`` field; ``retry_after_s``, when set,
    becomes a ``Retry-After`` header.
    """

    status = 503
    reason = "unavailable"
    retry_after_s: float | None = None


class ShedRequest(ServingUnavailable):
    """Admission control refused the request (server at capacity)."""

    reason = REASON_SHED

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(ServingUnavailable):
    """The request's deadline budget expired before it could be served."""

    status = 504
    reason = REASON_DEADLINE


class Deadline:
    """An absolute expiry on the injected monotonic clock.

    Built once per request from its ``deadline_ms`` budget;
    :meth:`remaining` and :meth:`expired` are then cheap reads.
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
        start: float | None = None,
    ) -> None:
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_s}")
        self._clock = clock
        self.expires_at = (start if start is not None else clock()) + budget_s

    @classmethod
    def from_ms(
        cls,
        budget_ms: float,
        clock: Callable[[], float] = time.monotonic,
        start: float | None = None,
    ) -> "Deadline":
        """A deadline from a millisecond budget (the wire unit)."""
        return cls(budget_ms / 1e3, clock=clock, start=start)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once blown)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.remaining() <= 0.0


class AdmissionController:
    """Bounded concurrent admissions with explicit load shedding.

    The serving engine is CPU-bound and serialized behind one lock;
    admitting unbounded HTTP threads just grows an invisible lock
    queue until every request times out.  This controller caps the
    number of in-flight requests: beyond ``max_inflight``, admission
    raises :class:`ShedRequest` carrying a ``Retry-After`` hint — the
    caller sees an honest 503 instead of a slow failure.

    Thread-safe; use :meth:`admit` as a context manager::

        with admission.admit():
            ... serve ...
    """

    def __init__(
        self,
        max_inflight: int = 64,
        retry_after_s: float = 1.0,
        metrics=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self.metrics = metrics
        self._lock = threading.Lock()
        self._inflight = 0
        self.shed_total = 0

    @property
    def inflight(self) -> int:
        """Requests currently admitted and not yet released."""
        return self._inflight

    def admit(self):
        """Context manager: acquire an admission slot or shed."""
        return _Admission(self)

    def _acquire(self) -> None:
        with self._lock:
            if self._inflight >= self.max_inflight:
                self.shed_total += 1
                if self.metrics is not None:
                    self.metrics.increment("requests_shed")
                raise ShedRequest(
                    f"server at capacity ({self.max_inflight} in flight); "
                    f"retry in {self.retry_after_s:g}s",
                    retry_after_s=self.retry_after_s,
                )
            self._inflight += 1
        if self.metrics is not None:
            self.metrics.set_gauge("inflight_requests", self._inflight)

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
        if self.metrics is not None:
            self.metrics.set_gauge("inflight_requests", self._inflight)


class _Admission:
    """The context-manager token handed out by :class:`AdmissionController`."""

    __slots__ = ("_controller",)

    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller

    def __enter__(self) -> "_Admission":
        self._controller._acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._controller._release()


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for :class:`CircuitBreaker`.

    A call counts as *bad* when it raised, or (with
    ``latency_threshold_s`` set) when it took longer than the
    threshold — the latency trip protects deadlines from an encoder
    that is technically alive but uselessly slow.
    """

    window: int = 32  #: sliding window of recent encode outcomes
    min_calls: int = 8  #: no trip decision before this many outcomes
    failure_threshold: float = 0.5  #: bad fraction that opens the breaker
    latency_threshold_s: float | None = None  #: slow-call trip (None: off)
    reset_timeout_s: float = 5.0  #: open → half-open probe delay
    half_open_probes: int = 2  #: consecutive probe successes to close

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_calls < 1 or self.half_open_probes < 1:
            raise ValueError("window, min_calls and half_open_probes must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        if self.reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding outcome window.

    * **closed** — all calls pass; outcomes are recorded.  When at
      least ``min_calls`` of the last ``window`` outcomes exist and
      the bad fraction reaches ``failure_threshold``, the breaker
      opens.
    * **open** — :meth:`allow` refuses until ``reset_timeout_s`` has
      elapsed, then transitions to half-open.
    * **half-open** — up to ``half_open_probes`` probe calls are let
      through; ``half_open_probes`` successes close the breaker (and
      clear the window), any failure reopens it and restarts the
      timer.

    Not thread-safe by itself — in the serving stack every caller sits
    behind the server lock.  ``on_transition(old, new)`` fires on each
    state change (the engine uses it for metrics and obs events).
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.clock = clock
        self.on_transition: Callable[[str, str], None] | None = None
        self._state = BREAKER_CLOSED
        self._window: deque[bool] = deque(maxlen=self.config.window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        #: Every ``(old_state, new_state)`` transition, for assertions.
        self.transitions: list[tuple[str, str]] = []

    @property
    def state(self) -> str:
        """Current state name (no side effects; see :meth:`allow`)."""
        return self._state

    def _transition(self, new: str) -> None:
        old, self._state = self._state, new
        self.transitions.append((old, new))
        if self.on_transition is not None:
            self.on_transition(old, new)

    def allow(self) -> bool:
        """Whether a protected call may proceed right now.

        In the open state this is also the timer check that moves the
        breaker to half-open, so only call it when there is real work
        to gate (a wasted probe slot delays recovery).
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if self.clock() - self._opened_at < self.config.reset_timeout_s:
                return False
            self._transition(BREAKER_HALF_OPEN)
            self._probes_in_flight = 0
            self._probe_successes = 0
        # Half-open: admit a bounded number of concurrent probes.
        if self._probes_in_flight < self.config.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    def record(self, ok: bool, latency_s: float = 0.0) -> None:
        """Record one protected-call outcome (exception or completion)."""
        threshold = self.config.latency_threshold_s
        good = ok and (threshold is None or latency_s <= threshold)
        if self._state == BREAKER_HALF_OPEN:
            if not good:
                self._open()
                return
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._window.clear()
                self._transition(BREAKER_CLOSED)
            return
        if self._state == BREAKER_OPEN:
            return  # a straggler finishing after the trip; nothing to learn
        self._window.append(good)
        if len(self._window) >= self.config.min_calls:
            bad = sum(1 for outcome in self._window if not outcome)
            if bad / len(self._window) >= self.config.failure_threshold:
                self._open()

    def _open(self) -> None:
        self._opened_at = self.clock()
        self._window.clear()
        self._transition(BREAKER_OPEN)


class PopularityFallback:
    """Tier-2 fallback scores: global item popularity, precomputed.

    The same counts the :class:`repro.models.pop.Pop` baseline uses —
    non-personalized and sequence-blind, but instant and always
    available.  An index-scaled epsilon breaks count ties so the
    served top-k is deterministic.
    """

    def __init__(self, dataset) -> None:
        counts = np.zeros(dataset.num_items + 1, dtype=np.float64)
        for sequence in dataset.train_sequences:
            np.add.at(counts, sequence, 1.0)
        counts[0] = 0.0
        # Deterministic tie-break: lower item id wins among equal counts.
        counts -= np.arange(counts.size, dtype=np.float64) * 1e-9
        counts[0] = 0.0
        self._scores = counts

    def score_row(self) -> np.ndarray:
        """The ``(num_items + 1,)`` popularity score row (shared, read-only)."""
        return self._scores


@dataclass(frozen=True)
class ResilienceConfig:
    """Engine-level resilience policy knobs (all optional, safe defaults).

    ``default_deadline_ms`` applies to requests that carry no
    ``deadline_ms`` of their own (``None``: no default deadline).
    ``encode_cost_margin`` scales the EWMA encode-cost estimate when
    deciding whether an encode would blow a deadline — above 1.0 it
    degrades *before* the budget is provably gone.
    """

    default_deadline_ms: float | None = None
    encode_cost_margin: float = 1.5
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if self.encode_cost_margin <= 0:
            raise ValueError("encode_cost_margin must be positive")


class ResiliencePolicy:
    """The engine's live resilience state: breaker + encode-cost EWMA.

    One policy per engine.  The engine consults it on every batch:
    deadlines via :meth:`deadline_for`, degrade decisions via
    :meth:`encode_would_blow`, and reports encode outcomes through
    :meth:`record_encode` (which feeds both the breaker and the EWMA
    cost estimate).
    """

    #: EWMA smoothing for the encode-cost estimate.
    EWMA_ALPHA = 0.3

    def __init__(
        self,
        config: ResilienceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else ResilienceConfig()
        self.clock = clock
        self.breaker = CircuitBreaker(self.config.breaker, clock=clock)
        self.encode_estimate_s = 0.0

    def deadline_for(self, request, start: float) -> Deadline | None:
        """The request's deadline (its own budget, else the default)."""
        budget_ms = getattr(request, "deadline_ms", None)
        if budget_ms is None:
            budget_ms = self.config.default_deadline_ms
        if budget_ms is None:
            return None
        return Deadline.from_ms(budget_ms, clock=self.clock, start=start)

    def encode_would_blow(self, deadline: Deadline | None) -> bool:
        """Whether paying for an encoder forward would bust ``deadline``."""
        if deadline is None or self.encode_estimate_s == 0.0:
            return False
        margin = self.config.encode_cost_margin
        return deadline.remaining() < margin * self.encode_estimate_s

    def record_encode(self, ok: bool, latency_s: float) -> None:
        """Report one encode micro-batch outcome to breaker and EWMA."""
        self.breaker.record(ok, latency_s)
        if ok:
            if self.encode_estimate_s == 0.0:
                self.encode_estimate_s = latency_s
            else:
                self.encode_estimate_s += self.EWMA_ALPHA * (
                    latency_s - self.encode_estimate_s
                )
