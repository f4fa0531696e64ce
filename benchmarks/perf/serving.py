"""Workloads ``serve_hot`` and ``serve_cold``: one server shape, two traffic mixes.

A child process serves a checkpointed SASRec over HTTP; this process is
the load generator.  ``serve_hot`` replays repeat visitors on a small
catalogue (the LRU cache answers almost everything, so the HTTP front
end and engine bookkeeping do the work); ``serve_cold`` replays
never-seen sessions against an IVF-PQ index on a larger catalogue (the
encoder and retrieval do the work, JSON bodies are large, a fifth of the
events are batches).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from dataclasses import dataclass

import numpy as np

from benchmarks.perf import loadgen, stats
from benchmarks.perf.common import (
    Outcome,
    RunContext,
    clock,
    overhead_share,
    timed_setups,
)
from benchmarks.perf.machine import usable_cores
from benchmarks.perf.tracing import Spanned, Tracer
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log, synthesize_trace
from repro.eval.topk import top_k_indices
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.nn.checkpoint import save_checkpoint
from repro.retrieval import ExactIndex, ProductQuantizer, kmeans, make_index
from repro.retrieval.ivf import default_nlist
from repro.serve.engine import RecommendationEngine
from repro.serve.resilience import REFUSAL_REASONS
from repro.serve.server import RecommendationServer

#: Phase lengths in seconds at the reference run length.
WARMUP_S = 1.0
CLOSED_S = 18.0
#: Open-loop rates of the traced run: the base rate, then two probes.
RATES = (25.0, 100.0, 400.0)
TRACED_OPEN_S = 4.0
TRACED_LADDER_S = 2.0
TRACED_PROBES = 100
#: Latency limit: p95 within this, at most 1 % failed, backlog not growing.
SLO_P95_S = 0.100
SLO_FAILED_SHARE = 0.01
#: A late generator invalidates every latency it produced.
MAX_LATE_P95_S = 0.005
#: A reply slower than this waited out the client's delayed ACK
#: (replies are ~3 ms without the stall, ~44 ms with it).
STALLED_S = 0.020
RECALL_FLOOR = 0.95
RECALL_SESSIONS = 200
IDENTITY_USERS = 50
K = 10


@dataclass(frozen=True)
class Shape:
    """What differs between the two serving workloads."""

    name: str
    index_kind: str
    index_params: dict
    trace: dict
    #: ``None``: catalogue from the synthetic log; else a directly
    #: constructed catalogue of this many items (``quick`` size second).
    catalogue: tuple[int, int] | None


SHAPES = {
    "serve_hot": Shape(
        name="serve_hot",
        index_kind="exact",
        index_params={},
        trace={"hot_users": 50, "hot_fraction": 0.95, "batch_fraction": 0.0},
        catalogue=None,
    ),
    "serve_cold": Shape(
        name="serve_cold",
        index_kind="ivf_pq",
        index_params={"nprobe": 10, "pq_m": 16, "rerank": 400},
        trace={"hot_fraction": 0.0, "batch_fraction": 0.2, "mean_batch": 8.0,
               "mean_session": 30.0},
        catalogue=(3000, 1200),
    ),
}


# ----------------------------------------------------------------------
# Inputs (parent and child build the same ones from the seed)
# ----------------------------------------------------------------------
def _clustered_catalogue(rng: np.random.Generator, num_items: int, dim: int) -> np.ndarray:
    """Items concentrated around interest centroids; row 0 is padding.

    The shape ``benchmarks/test_retrieval_latency.make_catalogue`` uses
    (real item spaces cluster, which is what IVF exploits), restated
    here because that file is due to be retired.
    """
    interests = 32
    centers = rng.normal(size=(interests, dim)) * 2.0
    matrix = np.zeros((num_items + 1, dim))
    matrix[1:] = centers[rng.integers(0, interests, size=num_items)] + rng.normal(
        size=(num_items, dim)
    ) * 0.6
    return matrix


def build_inputs(shape: Shape, seed: int, quick: bool):
    """``(dataset, untrained model)`` for a serving workload."""
    if shape.catalogue is None:
        dataset = SequenceDataset.from_log(
            generate_log(SyntheticConfig(
                num_users=300 if quick else 800, num_items=1000,
                num_interests=16, mean_length=10, seed=seed,
            )),
            name=shape.name,
        )
    else:
        num_items = shape.catalogue[1 if quick else 0]
        rng = np.random.default_rng([seed, 1])
        sequences = [rng.integers(1, num_items + 1, size=12) for __ in range(64)]
        dataset = SequenceDataset(
            train_sequences=[s[:-2] for s in sequences],
            valid_targets=[int(s[-2]) for s in sequences],
            test_targets=[int(s[-1]) for s in sequences],
            num_items=num_items,
            name=shape.name,
        )
    model = build_model(
        "SASRec", dataset,
        ExperimentScale(dim=64, max_length=50, batch_size=128, epochs=1, seed=seed),
    )
    return dataset, model


def write_checkpoint(shape: Shape, seed: int, dataset, model, path: str) -> None:
    """The weights the server will load — this workload's model input."""
    if shape.catalogue is None:
        # One supervised epoch over a fifth of the users: enough to pull
        # the embeddings away from their initial +-0.01 box.
        model.fit(dataset.subsample_users(0.2, seed=seed))
    else:
        state = model.state_dict()
        rows = dataset.num_items + 1
        weights = state["encoder.item_embedding.weight"].copy()
        weights[:rows] = _clustered_catalogue(
            np.random.default_rng([seed, 2]), dataset.num_items, weights.shape[1]
        )
        state["encoder.item_embedding.weight"] = weights
        model.load_state_dict(state)
    save_checkpoint(path, model)


def build_engine(shape: Shape, seed: int, quick: bool, checkpoint: str) -> RecommendationEngine:
    dataset, model = build_inputs(shape, seed, quick)
    return RecommendationEngine.from_checkpoint(
        checkpoint, model, dataset,
        index=make_index(shape.index_kind, **shape.index_params),
    )


def phase_events(shape: Shape, dataset, seed: int, phase: int):
    """A fresh event iterator per phase, so each starts at a known point
    of its own stream however many events the phase before consumed."""
    return synthesize_trace(
        num_events=1_000_000, user_pool=dataset.num_users, num_items=dataset.num_items,
        k=K, seed=seed * 100 + phase, **shape.trace,
    ).events()


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class ServerChild:
    """Spawn, await readiness, and reliably stop the server process."""

    READY_TIMEOUT_S = 120.0

    def __init__(self, ctx: RunContext, checkpoint: str) -> None:
        command = [sys.executable, "-m", "benchmarks.perf.server_child",
                   "--workload", ctx.workload, "--seed", str(ctx.seed),
                   "--checkpoint", checkpoint]
        if ctx.quick:
            command.append("--quick")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        watchdog = threading.Timer(self.READY_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server child did not come up (said {line!r})")
        self.port = int(line.split()[1])
        self.client().get_json("/health")  # set-up ends with the first answer

    def client(self) -> loadgen.HttpClient:
        return loadgen.HttpClient("127.0.0.1", self.port)

    def get_json(self, path: str) -> dict:
        client = self.client()
        try:
            return client.get_json(path)
        finally:
            client.close()

    def stop(self) -> int:
        """Close stdin (the stop signal), wait, and kill if it lingers."""
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            code = self.process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        return code


# ----------------------------------------------------------------------
# Checks shared by both modes
# ----------------------------------------------------------------------
def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(after["counters"].get(name, 0)) - int(before["counters"].get(name, 0))


def _check_phases(outcome: Outcome, phases, before: dict, after: dict) -> None:
    refusals = [r for phase in phases for r in phase.refusals]
    bad = [r for r in refusals if r[1] not in REFUSAL_REASONS]
    outcome.check("every non-200 carries a refusal reason", not bad, f"{bad[:3]}")
    errors = [e for phase in phases for e in phase.transport_errors]
    outcome.check("every request got an HTTP reply", not errors, "; ".join(errors[:2]))
    regressions = [
        versions for phase in phases for versions in phase.versions.values()
        if any(b < a for a, b in zip(versions, versions[1:]))
    ]
    outcome.check("model_version monotone per connection", not regressions)
    answered = sum(phase.sequences_ok for phase in phases)
    counted = _counter_delta(before, after, "requests")
    outcome.check("/metrics requests delta equals sequences answered",
                  counted == answered, f"counter {counted} vs clients {answered}")


def _batch_top_k(client: loadgen.HttpClient, payloads: list[dict]) -> list[list[int]]:
    """Served top-k lists for ``payloads`` through ``/recommend/batch``."""
    served: list[list[int]] = []
    for start in range(0, len(payloads), 50):
        body = json.dumps({"requests": payloads[start:start + 50]}).encode()
        status, raw = client.request("POST", "/recommend/batch", body)
        if status != 200:
            raise RuntimeError(f"/recommend/batch answered {status}: {raw[:200]!r}")
        served.extend(result["items"] for result in json.loads(raw)["results"])
    return served


def _check_identity(outcome: Outcome, client, dataset, model) -> int:
    """Served top-10 == the evaluator-side order (ExactIndex bit-identity)."""
    users = dataset.evaluation_users("test")[:IDENTITY_USERS]
    served = _batch_top_k(client, [{"user": int(u), "k": K} for u in users])
    scores = np.array(model.score_items(dataset, users, split="test"), dtype=np.float64)
    scores[:, 0] = -np.inf
    for row, user in enumerate(users):
        scores[row, dataset.seen_items(int(user))] = -np.inf
    expected = top_k_indices(scores, K).tolist()
    outcome.check(f"served top-{K} equals evaluator order for {len(users)} users",
                  served == expected)
    return len(users)


def _recall(dataset, model, sessions: list[list[int]], served: list[list[int]]) -> float:
    """Recall@10 of ``served`` against ``ExactIndex`` on the same sessions."""
    exact = ExactIndex().build(
        np.ascontiguousarray(model.item_embedding_matrix(dataset.num_items))
    )
    queries = model.encode_sequences([np.asarray(s) for s in sessions])
    truth = exact.search(
        queries, K, exclude=[np.unique(np.asarray(s)) for s in sessions]
    ).items
    hits = sum(len(set(got) & set(want.tolist())) for got, want in zip(served, truth))
    return hits / (K * len(sessions))


def _recall_sessions(shape: Shape, dataset, seed: int) -> list[list[int]]:
    sessions = []
    for event in phase_events(shape, dataset, seed, phase=9):
        sessions.extend(p["sequence"] for p in event["requests"] if "sequence" in p)
        if len(sessions) >= RECALL_SESSIONS:
            return sessions[:RECALL_SESSIONS]
    raise ValueError("trace ran dry collecting recall sessions")


def _meets_slo(phase: loadgen.PhaseResult, connections: int) -> bool:
    if not phase.latencies or phase.failed > SLO_FAILED_SHARE * phase.attempted:
        return False
    return (stats.percentile(phase.latencies, 95.0) <= SLO_P95_S
            and not phase.backlog_growing(slack=connections))


# ----------------------------------------------------------------------
# End to end (tracing off)
# ----------------------------------------------------------------------
def run_end_to_end(ctx: RunContext, shape: Shape, connections: int) -> Outcome:
    outcome = Outcome()
    dataset, model = build_inputs(shape, ctx.seed, ctx.quick)
    checkpoint = f"{ctx.workdir}/model.npz"
    write_checkpoint(shape, ctx.seed, dataset, model, checkpoint)

    child, setups = timed_setups(lambda: ServerChild(ctx, checkpoint), ServerChild.stop)
    try:
        client = child.client()
        if shape.catalogue is None:
            checked = _check_identity(outcome, client, dataset, model)
        else:
            sessions = _recall_sessions(shape, dataset, ctx.seed)
            served = _batch_top_k(client, [{"sequence": s, "k": K} for s in sessions])
            recall = _recall(dataset, model, sessions, served)
            outcome.check(f"recall_at_10 >= {RECALL_FLOOR}", recall >= RECALL_FLOOR,
                          f"{recall:.4f} on {len(sessions)} sessions")
            outcome.row("recall_at_10", recall, "-", len(sessions))
            checked = len(sessions)
        client.close()
        outcome.attempted += checked

        loadgen.closed_loop("127.0.0.1", child.port, phase_events(shape, dataset, ctx.seed, 0),
                            WARMUP_S * ctx.scale, clients=1, name="warmup")
        before = child.get_json("/metrics")
        closed = loadgen.closed_loop(
            "127.0.0.1", child.port, phase_events(shape, dataset, ctx.seed, 1),
            CLOSED_S * ctx.scale, clients=connections, name="closed",
        )
        after = child.get_json("/metrics")
    finally:
        code = child.stop()
    outcome.check("server child exited cleanly", code == 0, f"exit code {code}")
    _check_phases(outcome, [closed], before, after)
    outcome.attempted += closed.attempted
    outcome.failed += closed.failed

    outcome.metrics = {
        "setup_s": stats.median(setups),
        "op_ms": stats.median(closed.latencies) * 1e3,
        "throughput_per_s": closed.ok / closed.duration_s,
    }
    outcome.row("dataset.users", dataset.num_users, "count")
    outcome.row("dataset.items", dataset.num_items, "count")
    outcome.row("connections", connections, "count")
    outcome.timing_rows("recommend_closed", closed.latencies)
    outcome.row("closed_qps", closed.ok / closed.duration_s, "req/s", closed.ok)
    lookups = _counter_delta(before, after, "user_cache_hits") + _counter_delta(
        before, after, "user_cache_misses")
    outcome.row("serve.cache_hit_ratio",
                _counter_delta(before, after, "user_cache_hits") / max(1, lookups),
                "share", lookups)
    return outcome


# ----------------------------------------------------------------------
# Traced run (per-layer numbers)
# ----------------------------------------------------------------------
def _build_breakdown(shape: Shape, matrix: np.ndarray, rounds: int = 2) -> dict:
    """Index build time and, for IVF-PQ, where it goes.

    The parts are the public pieces ``IVFIndex.build`` is made of, run
    on the same matrix with the same parameters; the residual is what
    the build spends outside them (list layout, checksum).  Build and
    parts are timed in alternation and the fastest of each is kept, so a
    slow stretch of the machine cannot land on one side of the
    subtraction only.
    """
    index = make_index(shape.index_kind, **shape.index_params)
    calls = {"total": lambda: index.build(matrix)}
    if shape.index_kind == "ivf_pq":
        items = matrix[1:].astype(np.float64, copy=False)
        quantizer = ProductQuantizer(m=index.pq_m, iters=index.kmeans_iters, seed=index.seed)
        calls["kmeans"] = lambda: kmeans(
            items, default_nlist(items.shape[0]), iters=index.kmeans_iters, seed=index.seed)
        calls["pq_fit"] = lambda: quantizer.fit(items)
        calls["encode"] = lambda: quantizer.encode(matrix)
    fastest = {"total": float("inf"), "kmeans": 0.0, "pq_fit": 0.0, "encode": 0.0}
    for attempt in range(rounds):
        for name, call in calls.items():
            started = clock()
            call()
            elapsed = clock() - started
            fastest[name] = elapsed if attempt == 0 else min(fastest[name], elapsed)
    parts = sum(seconds for name, seconds in fastest.items() if name != "total")
    return {**fastest, "residual": fastest["total"] - parts}


def _in_process_spans(tracer: Tracer, ctx: RunContext, shape: Shape, dataset,
                      checkpoint: str, probes: list[dict]):
    """The probe payloads again, in process, as real parent/child spans.

    ``server.handle_*`` -> ``engine.recommend_batch`` -> ``encode`` /
    ``search`` nest because the callee at each level is swapped for a
    forwarding stand-in; then the encoder alone, one sequence and eight.
    Returns ``(model, index, seconds spent under the tracer)``.
    """
    engine = build_engine(shape, ctx.seed, ctx.quick, checkpoint)
    server = RecommendationServer(engine, port=0)  # bound, never served
    try:
        def replay(events) -> None:
            for event in events:
                with tracer.span("serve.server_handle"):
                    if event["kind"] == "batch":
                        server.handle_batch({"requests": event["requests"]})
                    else:
                        server.handle_single(event["requests"][0])

        # Warm this engine's cache the way the child's was: with the
        # warm-up stream, never with the probes themselves.
        tracer.enabled = False
        replay(event for event, __ in zip(
            phase_events(shape, dataset, ctx.seed, 0), range(len(probes))))
        tracer.enabled = True
        model, index = engine.model, engine.index
        engine.model = Spanned(model, tracer, {"encode_sequences": "models.encode_in_engine"})
        engine.index = Spanned(index, tracer, {"search": "retrieval.search"})
        server.engine = Spanned(engine, tracer, {"recommend_batch": "serve.engine_batch"})
        started = clock()
        replay(probes)
        engine.model, engine.index, server.engine = model, index, engine
    finally:
        server.shutdown()

    sequences = [np.asarray(p["sequence"]) if "sequence" in p
                 else dataset.full_sequence(p["user"])
                 for event in probes for p in event["requests"]][:64]
    for sequence in sequences:
        with tracer.span("models.encode"):
            model.encode_sequences([sequence])
    for start in range(0, len(sequences) - 7, 8):
        with tracer.span("models.encode_batch8"):
            model.encode_sequences(sequences[start:start + 8])
    return model, index, clock() - started


def run_traced(ctx: RunContext, shape: Shape, connections: int) -> Outcome:
    outcome = Outcome()
    tracer = Tracer()
    dataset, model = build_inputs(shape, ctx.seed, ctx.quick)
    checkpoint = f"{ctx.workdir}/model.npz"
    write_checkpoint(shape, ctx.seed, dataset, model, checkpoint)
    probes = [event for event, __ in zip(
        phase_events(shape, dataset, ctx.seed, 3), range(ctx.units(TRACED_PROBES, floor=20)))]

    child = ServerChild(ctx, checkpoint)
    try:
        loadgen.closed_loop("127.0.0.1", child.port, phase_events(shape, dataset, ctx.seed, 0),
                            WARMUP_S * ctx.scale, clients=1, name="warmup")
        # One connection, one request at a time: the round trip itself.
        client = child.client()
        traced_started = clock()
        for event in probes:
            path, body, __ = loadgen.encode_event(event)
            with tracer.span("serve.http_roundtrip"):
                status, __ = client.request("POST", path, body)
            outcome.attempted += 1
            outcome.failed += status != 200
        traced_seconds = clock() - traced_started
        client.close()

        phases = {}
        before = child.get_json("/metrics")
        for phase, (rate, seconds) in enumerate(
            zip(RATES, (TRACED_OPEN_S, TRACED_LADDER_S, TRACED_LADDER_S)), start=4
        ):
            phases[rate] = loadgen.open_loop(
                "127.0.0.1", child.port, phase_events(shape, dataset, ctx.seed, phase),
                rate, seconds * ctx.scale, ctx.seed, connections, name=f"open{rate:g}",
            )
            if rate == RATES[0]:
                after = child.get_json("/metrics")
    finally:
        code = child.stop()
    outcome.check("server child exited cleanly", code == 0, f"exit code {code}")
    base = phases[RATES[0]]
    # Only the base rate is a promise; the two above it probe for where
    # the limit is, and their shortfall is the slo_rate_qps result.
    outcome.attempted += base.attempted
    outcome.failed += base.failed

    inner_model, inner_index, seconds = _in_process_spans(tracer, ctx, shape, dataset,
                                                          checkpoint, probes)
    traced_seconds += seconds

    recall = 0.0
    if shape.catalogue is not None:
        sessions = _recall_sessions(shape, dataset, ctx.seed)
        found = inner_index.search(
            inner_model.encode_sequences([np.asarray(s) for s in sessions]), K,
            exclude=[np.unique(np.asarray(s)) for s in sessions],
        ).items.tolist()
        recall = _recall(dataset, inner_model, sessions, found)
    build = _build_breakdown(shape, inner_index.matrix)

    def ms(name: str, self_time: bool = False) -> float:
        values = tracer.self_times(name) if self_time else tracer.durations(name)
        return stats.median(values) * 1e3 if values else 0.0

    requests = max(1, _counter_delta(before, after, "requests"))
    hits = _counter_delta(before, after, "user_cache_hits")
    lookups = hits + _counter_delta(before, after, "user_cache_misses")
    met = [rate for rate in RATES if _meets_slo(phases[rate], connections)]
    outcome.metrics = {
        "serve.http_roundtrip_ms": ms("serve.http_roundtrip"),
        "serve.http_self_ms": ms("serve.http_roundtrip") - ms("serve.server_handle"),
        "serve.server_handle_ms": ms("serve.server_handle"),
        "serve.server_self_ms": ms("serve.server_handle", self_time=True),
        "serve.engine_batch_ms": ms("serve.engine_batch"),
        "serve.engine_self_ms": ms("serve.engine_batch", self_time=True),
        "models.encode_ms": ms("models.encode"),
        "models.encode_batch8_ms": ms("models.encode_batch8"),
        "retrieval.search_ms": ms("retrieval.search"),
        "retrieval.scored_fraction":
            _counter_delta(before, after, "index_candidates_scored")
            / (requests * dataset.num_items),
        "retrieval.clusters_probed_per_query":
            _counter_delta(before, after, "index_clusters_probed") / requests,
        "retrieval.reranked_per_query":
            _counter_delta(before, after, "index_reranked") / requests,
        "serve.cache_hit_ratio": hits / max(1, lookups),
        "serve.degraded_share": _counter_delta(before, after, "requests_degraded") / requests,
        "serve.shed_share": _counter_delta(before, after, "requests_shed") / max(1, base.attempted),
        "retrieval.index_build_s": build["total"],
        "retrieval.build_kmeans_s": build["kmeans"],
        "retrieval.build_pq_fit_s": build["pq_fit"],
        "retrieval.build_encode_s": build["encode"],
        "retrieval.build_residual_s": build["residual"],
        "retrieval.recall_at_10": recall,
        "loadgen.open25_p50_ms": stats.median(base.latencies or [0.0]) * 1e3,
        "loadgen.open25_stalled_share":
            sum(latency > STALLED_S for latency in base.latencies) / max(1, base.ok),
        "loadgen.late_ms_p95": stats.percentile(base.late or [0.0], 95.0) * 1e3,
        "loadgen.backlog_max": float(base.backlog_max),
        "loadgen.slo_rate_qps": max(met, default=0.0),
        "trace.overhead_share": overhead_share(tracer, traced_seconds),
    }
    _check_phases(outcome, [base], before, after)
    # A late generator is the machine's doing (a busy shared host wakes
    # the sleeping threads late), not a wrong output of the program: it
    # flags this run's open-loop latencies, it does not fail the run.
    late_p95 = stats.percentile(base.late or [0.0], 95.0)
    outcome.row("loadgen.schedule_kept", float(late_p95 <= MAX_LATE_P95_S), "bool", len(base.late),
                note="" if late_p95 <= MAX_LATE_P95_S else
                f"INVALID open-loop latencies: late p95 {late_p95 * 1e3:.3f} ms > 5 ms")
    return outcome


def run(ctx: RunContext) -> Outcome:
    shape = SHAPES[ctx.workload]
    mode = run_traced if ctx.trace else run_end_to_end
    return mode(ctx, shape, connections=usable_cores())
