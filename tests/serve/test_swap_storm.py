"""Hot swaps under traffic: the one engine behind the one server.

Client threads hammer ``/recommend`` and ``/recommend/batch`` while one
more client fires ``/admin/reload`` repeatedly.  The server's lock puts
every swap between two requests, so each answer is scored against
exactly one model generation.  The serving checks judge the traffic:
every call is answered, a refusal is ``shed`` and nothing else, no
batch item errors, every answer has items and finite scores,
``model_version`` never goes backwards from any client's point of view,
and ``/metrics`` counted exactly the requests answered.
"""

import threading
import time

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.loadtest import Client, checks
from repro.loadtest.harness import metrics_snapshot, run_clients
from repro.models.registry import build_model
from repro.runtime.checkpointing import CheckpointManager
from repro.serve import RecommendationEngine, RecommendationServer
from repro.serve.resilience import REASON_SHED

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)

CLIENT_THREADS = 4
RELOADS = 5
DURATION_S = 2.5


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    path = tmp_path_factory.mktemp("storm-ckpts")
    CheckpointManager(path).save(
        1, {f"model/{k}": v for k, v in model.state_dict().items()}
    )
    return path


def _engine(checkpoint_dir, tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    return RecommendationEngine.from_checkpoint(checkpoint_dir, model, tiny_dataset)


def test_reload_storm_under_traffic(checkpoint_dir, tiny_dataset):
    engine = _engine(checkpoint_dir, tiny_dataset)
    server = RecommendationServer(
        engine, port=0, max_inflight=CLIENT_THREADS * 4
    )
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    admin = Client(*server.address)
    metrics_before = metrics_snapshot(admin)

    stop = threading.Event()
    outcomes: list = []

    def hammer(thread_id: int, client: Client) -> None:
        i = 0
        while not stop.is_set():
            if i % 3 == 0:
                path = "/recommend/batch"
                payload = {"requests": [
                    {"user": (thread_id * 31 + i + j) % 50, "k": 5}
                    for j in range(4)
                ]}
            else:
                path = "/recommend"
                payload = {"user": (thread_id * 31 + i) % 50, "k": 5}
            outcomes.append(checks.outcome_of(
                client.post(path, payload), f"{path} {i}", thread_id,
                path, payload,
            ))
            i += 1

    def reload_storm(__: int, client: Client) -> None:
        try:
            deadline = time.monotonic() + DURATION_S
            for __ in range(RELOADS):
                time.sleep((DURATION_S / RELOADS) * 0.5)
                reply = client.post("/admin/reload", {})
                assert reply.status == 200, reply
            while time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            stop.set()

    try:
        # Re-raises any worker's exception: a hammer that dies on a reply
        # fails the test instead of quietly thinning the traffic.
        run_clients(*server.address, 30.0,
                    [hammer] * CLIENT_THREADS + [reload_storm])
        metrics_after = metrics_snapshot(admin)
    finally:
        stop.set()
        admin.close()
        server.shutdown()
        serve_thread.join(timeout=5)

    violations = (
        checks.completeness(outcomes)
        + checks.refusal_envelope(outcomes, frozenset({REASON_SHED}))
        + checks.item_errors(outcomes, frozenset())
        + checks.well_formed(outcomes)
        + checks.monotone_versions(outcomes)
        + checks.metrics_accounting(outcomes, metrics_before, metrics_after)
        + checks.metrics_schema(metrics_after)
    )
    assert violations == []
    versions = [v for outcome in outcomes for v in outcome.model_versions]
    # Every answered item carried the generation that scored it.
    assert len(versions) == sum(
        o.ok_items + len(o.error_reasons) for o in outcomes
    )
    assert len(versions) > RELOADS * CLIENT_THREADS  # traffic actually flowed
    assert engine.model_version == 1 + RELOADS
    # Someone observed a post-swap generation (the swap wasn't a no-op).
    assert max(versions) > 1


def test_swap_storm_direct_api(checkpoint_dir, tiny_dataset):
    """Back-to-back swaps with interleaved scoring stay coherent: each
    answer carries the generation just published, and no representation
    cached under an older one is served after a swap."""
    engine = _engine(checkpoint_dir, tiny_dataset)
    for round_number in range(4):
        warm = engine.recommend(user=round_number, k=5)
        assert engine.recommend(user=round_number, k=5).cached
        engine.swap_model(checkpoint_dir)
        expected = 2 + round_number
        result = engine.recommend(user=round_number, k=5)
        assert result.model_version == expected
        assert not result.cached
        # The same weights swapped back in answer the same list.
        assert np.array_equal(result.items, warm.items)
        assert np.array_equal(result.scores, warm.scores)
    assert engine.metrics.counters["model_swaps"] == 4
