"""Deterministic chaos scenario for the serving stack.

Fault-injection tests (``repro.runtime.faults``) prove the *training*
runtime survives bad disks and preemptions; this module does the same
for *serving*.  :func:`run_chaos` drives a live
:class:`~repro.serve.server.RecommendationServer` through a scripted
sequence of traffic phases while toggling encoder fault windows on a
shared :class:`~repro.runtime.faults.FaultInjector`:

1. **warmup** — healthy traffic, served full quality;
2. **slow encodes** — each forward stalls :data:`ENCODE_DELAY_S`, and
   sequential traffic still answers;
3. **saturation burst** — :data:`BURST_THREADS` connections exceed the
   admission bound while encodes are slow; the excess is *shed* with a
   structured 503 + ``Retry-After``, never lost or 500'd;
4. **encoder failures** — every forward raises (cache invalidated
   first); the breaker opens and the popularity fallback keeps serving
   (200 + ``"degraded": true``);
5. **corrupt reload** — ``/admin/reload`` of a checksum-corrupted copy
   fails with ``"reason": "swap_failed"`` and keeps ``model_version``;
6. **live reload mid-traffic** — a valid reload races requests, each
   answered by the before or the after generation (no half-loaded model);
7. **recovery** — fault windows close; probes run until the breaker is
   *closed* and answers are full quality again.

Every call goes through the one :class:`~repro.loadtest.client.Client`
and is recorded as a :class:`~repro.loadtest.checks.Outcome`; besides
the per-phase invariants, the whole run is judged by the serving
checks of :mod:`repro.loadtest.checks`.  The traffic script is
deterministic (fixed user/sequence cycles, fault windows toggled at
phase boundaries, the encoder failure rate driven at 1.0); only thread
interleaving varies, and every invariant is interleaving-independent.
The scenario is both a pytest target (``tests/loadtest/test_chaos.py``,
marker ``chaos``) and a CLI (``python -m repro chaos``).
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field

from repro.loadtest import checks
from repro.loadtest.checks import Outcome
from repro.loadtest.client import Client
from repro.loadtest.harness import metrics_snapshot, run_clients
from repro.obs.registry import Histogram
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import FaultInjector
from repro.serve.resilience import BREAKER_CLOSED, REASON_SHED, REFUSAL_REASONS

__all__ = ["ChaosReport", "run_chaos"]

USERS = 24  #: distinct user ids cycled through by the script
K = 10
WARMUP_REQUESTS = 16
SLOW_REQUESTS = 6
BURST_REQUESTS = 32
BURST_THREADS = 8
FAULT_REQUESTS = 16
RECOVERY_BUDGET_S = 15.0  #: max wall time waiting for the breaker to close
DEADLINE_MS = 1000.0  #: per-request budget carried by the script
ENCODE_DELAY_S = 0.05  #: stall per forward in the slow window
P99_BUDGET_MS = 2000.0  #: bound on the latency of answered, non-shed calls
TIMEOUT_S = 10.0  #: per-HTTP-call client timeout


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the invariant verdicts."""

    outcomes: list[Outcome] = field(default_factory=list)
    breaker_transitions: list[tuple[str, str]] = field(default_factory=list)
    model_version_start: int = 0
    model_version_end: int = 0
    #: ``(name, ok, detail)`` per invariant checked.
    invariants: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return all(ok for _, ok, _ in self.invariants)

    def phase(self, label: str) -> list[Outcome]:
        return [o for o in self.outcomes if o.label == label]

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.invariants.append((name, bool(ok), detail))

    def check_all(self, name: str, violations: list[str], detail: str) -> None:
        """An invariant made of serving checks: it holds when they
        found nothing, and then reads ``detail``."""
        self.check(name, not violations, "; ".join(violations) or detail)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "requests": len(self.outcomes),
            **checks.summarize(self.outcomes),
            "breaker_transitions": [list(t) for t in self.breaker_transitions],
            "model_version": {
                "start": self.model_version_start,
                "end": self.model_version_end,
            },
            "invariants": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.invariants
            ],
        }

    def to_markdown(self) -> str:
        summary = checks.summarize(self.outcomes)
        lines = [
            "# Serving chaos report",
            "",
            f"Requests: {len(self.outcomes)}  |  degraded: "
            f"{summary['degraded_items']}  |  p99 (200 replies): "
            f"{summary['latency']['p99_ms']:.1f} ms",
            f"Breaker transitions: "
            f"{' -> '.join(new for _, new in self.breaker_transitions) or 'none'}",
            f"Model version: {self.model_version_start} -> {self.model_version_end}",
            "",
            "| invariant | verdict | detail |",
            "|---|---|---|",
        ]
        for name, ok, detail in self.invariants:
            lines.append(f"| {name} | {'PASS' if ok else 'FAIL'} | {detail} |")
        return "\n".join(lines) + "\n"


def _prepare_checkpoints(engine, workdir: str) -> tuple[str | None, str | None]:
    """(valid_copy, corrupt_copy) archive paths for the reload phases.

    Works whether the engine was loaded from a single archive or a
    checkpoint-manager directory; returns ``(None, None)`` when the
    engine was not built from a checkpoint at all.
    """
    source = engine.checkpoint_path
    if not source:
        return None, None
    if os.path.isdir(source):
        manager = CheckpointManager(source)
        latest = manager.latest_step()
        if latest is None:
            return None, None
        source = str(manager.path_for(latest))
    os.makedirs(workdir, exist_ok=True)
    valid = os.path.join(workdir, "chaos_valid.npz")
    corrupt = os.path.join(workdir, "chaos_corrupt.npz")
    for target in (valid, corrupt):
        shutil.copyfile(source, target)
        sidecar = source + ".sha256"
        if os.path.exists(sidecar):
            shutil.copyfile(sidecar, target + ".sha256")
    FaultInjector.corrupt_file(corrupt, flip_byte_at=64)
    return valid, corrupt


def run_chaos(server, faults, workdir: str) -> ChaosReport:
    """Run the scripted chaos scenario against a live ``server``.

    ``server`` is a started :class:`~repro.serve.server.
    RecommendationServer` whose engine was built with ``faults`` (the
    same :class:`~repro.runtime.faults.FaultInjector` instance — the
    driver opens and closes its fault windows).  ``workdir`` is a
    scratch directory for the reload-phase checkpoint copies.  Returns
    a :class:`ChaosReport`; callers decide whether a failed invariant
    is fatal (:attr:`ChaosReport.ok`).
    """
    engine = server.engine
    if engine.policy is None:
        raise ValueError("chaos requires an engine with a resilience policy")
    host, port = server.address
    report = ChaosReport(model_version_start=engine.model_version)
    num_users = min(USERS, engine.dataset.num_users)
    num_items = engine.dataset.num_items

    def user_payload(i: int) -> dict:
        return {"user": i % num_users, "k": K, "deadline_ms": DEADLINE_MS}

    def fresh_payload(i: int) -> dict:
        return {
            "sequence": [1 + (i % num_items), 1 + ((i * 7 + 3) % num_items)],
            "k": K,
            "deadline_ms": DEADLINE_MS,
        }

    def send(client: Client, client_id: int, label: str, payload: dict,
             path: str = "/recommend") -> Outcome:
        outcome = checks.outcome_of(
            client.post(path, payload), label, client_id, path, payload
        )
        report.outcomes.append(outcome)
        return outcome

    with Client(host, port, TIMEOUT_S) as client:
        metrics_before = metrics_snapshot(client)

        # Phase 1: warmup — healthy traffic, full quality expected.
        for i in range(WARMUP_REQUESTS):
            send(client, 0, "warmup", user_payload(i))
        full = sum(
            o.status == 200 and not o.degraded_items for o in report.phase("warmup")
        )
        report.check(
            "warmup_full_quality",
            full == WARMUP_REQUESTS,
            f"{full}/{WARMUP_REQUESTS} warmup requests served full quality",
        )

        # Phase 2: slow encodes (the encode_slow fault site).
        faults.encode_delay_s = ENCODE_DELAY_S
        for i in range(SLOW_REQUESTS):
            send(client, 0, "slow_encodes", fresh_payload(i))
        slow_served = sum(o.status == 200 for o in report.phase("slow_encodes"))
        report.check(
            "slow_window_served",
            slow_served == SLOW_REQUESTS,
            f"{slow_served}/{SLOW_REQUESTS} served during the slow window",
        )

        # Phase 3: a burst while encodes are still slow, so slots stay taken.
        engine.invalidate_cache()
        per_client = BURST_REQUESTS // BURST_THREADS

        def burst(index: int, burst_client: Client) -> None:
            for j in range(per_client):
                send(burst_client, 1 + index, "burst",
                     fresh_payload(1000 + index * per_client + j))

        run_clients(host, port, TIMEOUT_S, [burst] * BURST_THREADS)
        faults.encode_delay_s = 0.0
        bursts = report.phase("burst")
        burst_shed = sum(o.refusal_reason == REASON_SHED for o in bursts)
        report.check_all(
            "burst_no_lost_requests",
            checks.completeness(bursts)
            + checks.refusal_envelope(bursts, REFUSAL_REASONS)
            + ([] if len(bursts) == BURST_REQUESTS else
               [f"{len(bursts)}/{BURST_REQUESTS} burst calls recorded"]),
            f"{len(bursts)}/{BURST_REQUESTS} answered or refused with a "
            f"reason, none lost",
        )
        report.check(
            "burst_shed_structured",
            burst_shed > 0 or server.admission.max_inflight >= BURST_THREADS,
            f"{burst_shed} requests shed with reason=shed "
            f"(max_inflight={server.admission.max_inflight})",
        )

        # Phase 4: every encoder forward fails; traffic must degrade, not die.
        faults.encode_failure_rate = 1.0
        engine.invalidate_cache()
        for i in range(FAULT_REQUESTS):
            send(client, 0, "encoder_failures", user_payload(i))
        failures = report.phase("encoder_failures")
        served = sum(o.status == 200 for o in failures)
        degraded = sum(o.status == 200 and bool(o.degraded_items) for o in failures)
        report.check(
            "failures_degrade_not_500",
            served == FAULT_REQUESTS and degraded > 0,
            f"{served}/{FAULT_REQUESTS} served, {degraded} degraded "
            f"under 100% encoder failure",
        )
        report.check(
            "breaker_opened",
            any(new == "open" for _, new in engine.policy.breaker.transitions),
            f"transitions: {engine.policy.breaker.transitions}",
        )
        faults.encode_failure_rate = 0.0

        # Phase 5 + 6: reload chaos (skipped when no checkpoint to reload).
        valid_ckpt, corrupt_ckpt = _prepare_checkpoints(engine, workdir)
        if corrupt_ckpt is not None:
            version_before = engine.model_version
            outcome = send(client, 0, "corrupt_reload",
                           {"checkpoint": corrupt_ckpt}, path="/admin/reload")
            report.check(
                "corrupt_reload_refused",
                outcome.status == 500
                and outcome.refusal_reason == "swap_failed"
                and engine.model_version == version_before,
                f"status={outcome.status} reason={outcome.refusal_reason} "
                f"version {version_before} -> {engine.model_version}",
            )
        if valid_ckpt is not None:
            version_before = engine.model_version
            traffic_flowing = threading.Event()
            stop_traffic = threading.Event()
            reloads: list[Outcome] = []

            def traffic(index: int, traffic_client: Client) -> None:
                i = 0
                while not stop_traffic.is_set():
                    send(traffic_client, 1 + BURST_THREADS + index,
                         "reload_traffic", user_payload(i))
                    traffic_flowing.set()
                    i += 1

            def reload(index: int, reload_client: Client) -> None:
                try:
                    traffic_flowing.wait(TIMEOUT_S)
                    reloads.append(send(
                        reload_client, 1 + BURST_THREADS + index, "live_reload",
                        {"checkpoint": valid_ckpt}, path="/admin/reload",
                    ))
                finally:
                    stop_traffic.set()

            run_clients(host, port, TIMEOUT_S, [traffic, reload])
            versions = {
                version
                for o in report.phase("reload_traffic")
                for version in o.model_versions
            }
            report.check(
                "live_reload_succeeded",
                reloads[0].status == 200
                and engine.model_version == version_before + 1,
                f"status={reloads[0].status} "
                f"version {version_before} -> {engine.model_version}",
            )
            report.check(
                "no_half_loaded_model",
                versions <= {version_before, version_before + 1},
                f"observed model versions during reload: {sorted(versions)}",
            )

        # Phase 7: recovery, bounded by RECOVERY_BUDGET_S.
        deadline = time.monotonic() + RECOVERY_BUDGET_S
        i = 0
        while (
            engine.policy.breaker.state != BREAKER_CLOSED
            and time.monotonic() < deadline
        ):
            send(client, 0, "recovery", fresh_payload(5000 + i))
            i += 1
            time.sleep(0.05)
        # A few post-recovery requests must be full quality again.
        tail_ok = sum(
            outcome.status == 200 and not outcome.degraded_items
            for outcome in (
                send(client, 0, "recovered", fresh_payload(9000 + j))
                for j in range(4)
            )
        )
        report.check(
            "breaker_recovered",
            engine.policy.breaker.state == BREAKER_CLOSED and tail_ok == 4,
            f"breaker={engine.policy.breaker.state}, "
            f"{tail_ok}/4 post-recovery requests full quality",
        )
        metrics_after = metrics_snapshot(client)

    # The serving checks over the whole run.  The two reload calls are
    # judged by their phases above; every recommendation call must be
    # answered or refused within the shed/deadline envelope.
    answered = [o for o in report.outcomes if o.sequences]
    report.check_all(
        "all_requests_accounted",
        checks.completeness(report.outcomes)
        + checks.refusal_envelope(answered, REFUSAL_REASONS)
        + checks.item_errors(answered, checks.SERVING_ITEM_ERRORS),
        f"{len(report.outcomes)} requests, each answered or refused "
        f"with a reason",
    )
    # Every call that got a reply and was not shed: a slow 504 or a
    # slow reload counts against the budget too.
    replied = Histogram()
    for outcome in report.outcomes:
        if outcome.status and outcome.refusal_reason != REASON_SHED:
            replied.record(outcome.latency_s)
    p99 = replied.percentile(99) * 1e3
    report.check(
        "p99_bounded",
        p99 <= P99_BUDGET_MS,
        f"p99 of answered non-shed requests {p99:.1f} ms "
        f"(budget {P99_BUDGET_MS:g} ms)",
    )
    report.check_all(
        "success_payloads_well_formed",
        checks.well_formed(report.outcomes),
        "every answer carried items, finite scores and a model_version",
    )
    report.check_all(
        "versions_monotone_per_client",
        checks.monotone_versions(report.outcomes),
        "no client saw model_version go backwards",
    )
    report.check_all(
        "metrics_accounted",
        checks.metrics_accounting(report.outcomes, metrics_before, metrics_after)
        + checks.metrics_schema(metrics_after),
        "/metrics requests and requests_degraded moved by what clients saw",
    )

    report.breaker_transitions = list(engine.policy.breaker.transitions)
    report.model_version_end = engine.model_version
    return report
