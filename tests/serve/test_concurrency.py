"""Multi-threaded serving: no deadlocks, monotone counters, identical top-k."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.config import ExperimentScale
from repro.loadtest import Client
from repro.models.registry import build_model
from repro.serve import RecommendationEngine, RecommendationServer

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)

THREADS = 8
REQUESTS_PER_THREAD = 12


@pytest.fixture(scope="module")
def server(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    engine = RecommendationEngine(model, tiny_dataset, max_batch_size=8)
    srv = RecommendationServer(engine, port=0, max_inflight=THREADS * 2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)


class TestConcurrentHammer:
    def test_hammer_no_deadlock_and_deterministic_topk(self, server, tiny_dataset):
        num_users = min(10, tiny_dataset.num_users)
        results: dict[int, list] = {user: [] for user in range(num_users)}
        lock = threading.Lock()
        errors: list = []

        def worker(worker_id: int) -> None:
            with Client(*server.address) as client:
                for i in range(REQUESTS_PER_THREAD):
                    user = (worker_id + i) % num_users
                    reply = client.post("/recommend", {"user": user, "k": 10})
                    with lock:
                        if reply.status != 200:
                            errors.append((reply.status, reply.body, reply.error))
                        else:
                            results[user].append(
                                (reply.body["items"], reply.body["scores"])
                            )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(worker, w) for w in range(THREADS)]
            for future in futures:
                future.result(timeout=120)  # a deadlock fails here, not hangs

        # With max_inflight > thread count nothing may be shed or error.
        assert errors == []
        total = sum(len(v) for v in results.values())
        assert total == THREADS * REQUESTS_PER_THREAD
        # Bit-identical top-k for the same user regardless of contention.
        for user, answers in results.items():
            assert answers, f"user {user} never served"
            first_items, first_scores = answers[0]
            for items, scores in answers[1:]:
                assert items == first_items
                assert scores == first_scores

    def test_counters_are_monotone_and_consistent(self, server):
        engine = server.engine
        before = dict(engine.metrics.counters)

        def worker(worker_id: int) -> None:
            with Client(*server.address) as client:
                for i in range(6):
                    client.post("/recommend", {"user": (worker_id * 3 + i) % 10, "k": 5})

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for future in [pool.submit(worker, w) for w in range(THREADS)]:
                future.result(timeout=120)

        after = dict(engine.metrics.counters)
        for name, value in before.items():
            assert after.get(name, 0) >= value, f"counter {name} went backwards"
        assert after["requests"] == before.get("requests", 0) + THREADS * 6
        # Every request performs exactly one cache lookup.
        lookups = (
            after["user_cache_hits"]
            + after["user_cache_misses"]
            - before.get("user_cache_hits", 0)
            - before.get("user_cache_misses", 0)
        )
        assert lookups == THREADS * 6
        snapshot = engine.metrics.snapshot()
        assert 0.0 <= snapshot["cache"]["hit_rate"] <= 1.0
