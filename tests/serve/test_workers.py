"""Sharded worker-pool serving: bit-identity, swaps, lifecycle.

The acceptance bar for the scale-out layer (docs/SCALING.md): with
``ExactIndex``, ``workers=N`` must return *bit-identical* results to
the single-process engine for the same request trace — including the
resilience decisions (expired deadlines, fault-window degradation) —
because scoring batches are padded to a fixed length and every worker
runs the same engine over the same shared weights.
"""

import glob
import time

import numpy as np
import pytest

from repro.core.procpool import WorkerFailedError
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.nn.serialization import write_archive
from repro.retrieval import make_index
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import FaultInjector
from repro.serve import (
    DeadlineExceeded,
    RecommendationEngine,
    RecRequest,
    RequestError,
    ShardedEngine,
)
from repro.serve.engine import sequence_key

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


def shm_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-serve-*")


@pytest.fixture(scope="module")
def sasrec(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    return model


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, sasrec):
    path = tmp_path_factory.mktemp("worker-ckpts")
    manager = CheckpointManager(path)
    manager.save(
        1, {f"model/{k}": v for k, v in sasrec.state_dict().items()}
    )
    return path


def fresh_engine(checkpoint_dir, dataset, **kwargs) -> RecommendationEngine:
    model = build_model("SASRec", dataset, SCALE)
    return RecommendationEngine.from_checkpoint(
        checkpoint_dir, model, dataset, **kwargs
    )


def mixed_requests(dataset, n: int = 32) -> list[RecRequest]:
    """Users, raw sequences, k variations and one invalid request."""
    requests = [
        RecRequest(user=u, k=5 + (u % 3), exclude_seen=bool(u % 2))
        for u in range(n)
    ]
    for user in range(4):
        sequence = tuple(
            int(i) for i in dataset.full_sequence(user, split="test")[-6:]
        )
        requests.append(RecRequest(sequence=sequence, k=7))
    requests.append(RecRequest(user=dataset.num_users + 50, k=5))  # invalid
    return requests


def assert_identical(singles, shardeds):
    """Bit-identical responses; only the private ``cached`` flag may
    differ (it is not serialized to the wire)."""
    assert len(singles) == len(shardeds)
    for single, sharded in zip(singles, shardeds):
        assert np.array_equal(single.items, sharded.items)
        assert np.array_equal(single.scores, sharded.scores)
        assert single.error == sharded.error
        assert single.detail == sharded.detail
        assert single.degraded == sharded.degraded
        assert single.fallback == sharded.fallback
        assert single.model_version == sharded.model_version
        assert single.to_dict() == sharded.to_dict()


# ----------------------------------------------------------------------
# Bit-identity with the single-process path
# ----------------------------------------------------------------------
def test_workers_bit_identical_to_single_process(checkpoint_dir, tiny_dataset):
    single = fresh_engine(checkpoint_dir, tiny_dataset)
    requests = mixed_requests(tiny_dataset)
    expected = single.recommend_batch(requests, on_error="report")
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=3
    ) as sharded:
        got = sharded.recommend_batch(requests, on_error="report")
        assert_identical(expected, got)
        # Replay: cache hits on both sides must not change the bytes.
        assert_identical(expected, sharded.recommend_batch(
            requests, on_error="report"
        ))


def test_workers_identical_under_fault_windows(checkpoint_dir, tiny_dataset):
    """Chaos fault windows degrade both paths identically.

    ``encode_failure_rate=1.0`` makes every encode fail in whichever
    process runs it, so the shed/degrade decision per request cannot
    depend on how the batch was sharded.
    """
    requests = [RecRequest(user=u, k=5) for u in range(24)]
    single = fresh_engine(
        checkpoint_dir, tiny_dataset,
        faults=FaultInjector(encode_failure_rate=1.0, seed=0),
    )
    expected = single.recommend_batch(requests, on_error="report")
    assert all(r.degraded for r in expected)  # the window really fired
    with ShardedEngine(
        fresh_engine(
            checkpoint_dir, tiny_dataset,
            faults=FaultInjector(encode_failure_rate=1.0, seed=0),
        ),
        workers=2,
    ) as sharded:
        got = sharded.recommend_batch(requests, on_error="report")
    assert_identical(expected, got)


def test_workers_identical_expired_deadlines(checkpoint_dir, tiny_dataset):
    """A deadline that expired before scoring 504s identically."""
    requests = [
        RecRequest(user=u, k=5, deadline_ms=5.0) for u in range(12)
    ]
    single = fresh_engine(checkpoint_dir, tiny_dataset)
    started = time.monotonic() - 1.0  # budget blown on arrival
    expected = single.recommend_batch(
        requests, started=started, on_error="report"
    )
    assert all(r.error == "deadline_exceeded" for r in expected)
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    ) as sharded:
        got = sharded.recommend_batch(
            requests, started=started, on_error="report"
        )
    assert_identical(expected, got)


def test_raise_mode_matches_single_process(checkpoint_dir, tiny_dataset):
    bad = RecRequest(user=tiny_dataset.num_users + 9, k=5)
    single = fresh_engine(checkpoint_dir, tiny_dataset)
    with pytest.raises(RequestError) as single_error:
        single.recommend_batch([RecRequest(user=0, k=5), bad])
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    ) as sharded:
        with pytest.raises(RequestError) as sharded_error:
            sharded.recommend_batch([RecRequest(user=0, k=5), bad])
    assert str(single_error.value) == str(sharded_error.value)


def test_raise_mode_raises_the_first_error_in_request_order(
    checkpoint_dir, tiny_dataset
):
    """One error rule: an expired deadline ahead of a malformed request
    raises ``DeadlineExceeded`` in both flavours (the in-process engine
    used to raise whichever its pipeline met first)."""
    requests = [
        RecRequest(user=0, deadline_ms=1e-6),
        RecRequest(user=10**6),
    ]
    started = time.monotonic() - 1.0
    with pytest.raises(DeadlineExceeded):
        fresh_engine(checkpoint_dir, tiny_dataset).recommend_batch(
            requests, started=started
        )
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=1
    ) as sharded:
        with pytest.raises(DeadlineExceeded):
            sharded.recommend_batch(requests, started=started)
        with pytest.raises(RequestError, match="out of range"):
            sharded.recommend_batch(requests[::-1], started=started)


def test_raise_mode_serves_and_counts_the_whole_batch(
    checkpoint_dir, tiny_dataset
):
    """``on_error="raise"`` is ``"report"`` plus a raise: the good
    neighbours were served (and cached) and every request counted."""
    requests = [
        RecRequest(user=0, k=5),
        RecRequest(user=tiny_dataset.num_users + 9, k=5),
        RecRequest(user=1, k=5),
    ]
    single = fresh_engine(checkpoint_dir, tiny_dataset)
    with pytest.raises(RequestError):
        single.recommend_batch(requests)
    assert single.metrics.counters["requests"] == len(requests)
    assert single.recommend(user=1, k=5).cached
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    ) as sharded:
        with pytest.raises(RequestError):
            sharded.recommend_batch(requests)
        counters = sharded.metrics.snapshot()["counters"]
    assert counters["requests"] == len(requests)


def test_gru4rec_serves_under_sharded_engine(tiny_dataset):
    """A servable model that is not SASRec goes through the
    representation API like every other, so the worker pool serves it."""
    model = build_model("GRU4Rec", tiny_dataset, SCALE)
    requests = [RecRequest(user=u, k=6) for u in range(8)]
    expected = RecommendationEngine(model, tiny_dataset).recommend_batch(requests)
    with ShardedEngine(
        RecommendationEngine(model, tiny_dataset), workers=1
    ) as sharded:
        got = sharded.recommend_batch(requests)
    assert_identical(expected, got)
    for request, result in zip(requests, got):
        assert np.array_equal(
            model.recommend(tiny_dataset, request.user, k=6), result.items
        )


# ----------------------------------------------------------------------
# Cache sharding
# ----------------------------------------------------------------------
def test_cache_shards_by_user_and_warm_routes(checkpoint_dir, tiny_dataset):
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset, cache_size=64), workers=2
    ) as sharded:
        users = np.arange(10)
        encoded = sharded.warm(users)
        assert encoded == 10
        assert sharded.warm(users) == 0  # warm again: all cached
        result = sharded.recommend(user=3, k=5)
        assert result.cached
        per_worker = [s["cache_entries"] for s in sharded.worker_stats()]
        assert sum(per_worker) == 10
        assert all(count > 0 for count in per_worker)  # both shards used
        assert all(s["cache_size"] == 32 for s in sharded.worker_stats())
        sharded.invalidate_cache()
        assert [s["cache_entries"] for s in sharded.worker_stats()] == [0, 0]


def test_sequence_requests_stick_to_one_shard(checkpoint_dir, tiny_dataset):
    sequence = tuple(
        int(i) for i in tiny_dataset.full_sequence(1, split="test")[-5:]
    )
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    ) as sharded:
        first = sharded.recommend(sequence=sequence, k=5)
        second = sharded.recommend(sequence=sequence, k=5)
        assert not first.cached
        assert second.cached  # same shard served the repeat
        assert sequence_key(np.asarray(sequence)) is not None


# ----------------------------------------------------------------------
# Swap + merged metrics + lifecycle
# ----------------------------------------------------------------------
def test_swap_propagates_to_all_workers(checkpoint_dir, tiny_dataset):
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    ) as sharded:
        assert sharded.recommend(user=1, k=5).model_version == 1
        info = sharded.swap_model(checkpoint_dir)
        assert info["model_version"] == 2
        assert sharded.model_version == 2
        for stat in sharded.worker_stats():
            assert stat["model_version"] == 2
            assert stat["generation"] == 2
        assert sharded.recommend(user=1, k=5).model_version == 2
        # Old segment retired: exactly one live segment for this pool.
        assert len(shm_segments()) == 1


@pytest.mark.loadtest
def test_ivf_pq_swaps_match_the_in_process_history(
    checkpoint_dir, tiny_dataset, tmp_path
):
    """Swap x approximate index x process model: the workers continue
    their own codebooks swap by swap, and fan-out still serves what one
    engine with the same history serves."""
    archives = []
    for seed in (1, 2):
        model = build_model(
            "SASRec", tiny_dataset, SCALE.with_overrides(seed=SCALE.seed + seed)
        )
        archives.append(tmp_path / f"v{seed}.npz")
        write_archive(archives[-1], model.state_dict())
    requests = [RecRequest(user=u, k=8) for u in range(24)]

    def engine():
        index = make_index("ivf_pq", pq_m=4, nprobe=3, rerank=20)
        return fresh_engine(checkpoint_dir, tiny_dataset, index=index)

    single = engine()
    with ShardedEngine(engine(), workers=2) as sharded:
        for version, path in enumerate(archives, start=2):
            single.swap_model(path)
            assert sharded.swap_model(path)["model_version"] == version
            assert_identical(
                single.recommend_batch(requests),
                sharded.recommend_batch(requests),
            )
        assert len(shm_segments()) == 1
    assert shm_segments() == []


def test_failed_worker_swap_unlinks_the_new_segment(checkpoint_dir, tiny_dataset):
    """The segment a swap creates is nobody's until every worker has
    acknowledged it; a swap that dies in between must not leave it."""
    sharded = ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2,
        worker_timeout_s=10.0,
    )
    try:
        before = shm_segments()
        sharded._pool.processes[1].kill()
        sharded._pool.processes[1].join(5.0)
        with pytest.raises(RuntimeError, match="died|exited|model swap failed"):
            sharded.swap_model(checkpoint_dir)
        assert shm_segments() == before
    finally:
        sharded.close()
    assert shm_segments() == []


def test_merged_metrics_snapshot(checkpoint_dir, tiny_dataset):
    requests = [RecRequest(user=u, k=5) for u in range(20)]
    with ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    ) as sharded:
        sharded.recommend_batch(requests)
        snap = sharded.metrics.snapshot()
        assert snap["counters"]["requests"] == 20
        assert snap["counters"]["fanout_batches"] == 1
        assert snap["workers"]["count"] == 2
        assert snap["workers"]["alive"] == 2
        assert snap["latency"]["total"]["count"] >= 2  # one per worker
        # Repeated exports must not double count worker state.
        assert sharded.metrics.snapshot()["counters"]["requests"] == 20
        final = sharded.metrics.snapshot()
    # After close the last observed worker totals remain readable.
    post = sharded.metrics.snapshot()
    assert post["counters"]["requests"] == final["counters"]["requests"]


def test_close_is_clean_and_idempotent(checkpoint_dir, tiny_dataset):
    sharded = ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2
    )
    assert len(shm_segments()) == 1
    procs = list(sharded._pool.processes)
    sharded.close()
    sharded.close()  # idempotent
    assert shm_segments() == []
    assert all(not p.is_alive() for p in procs)
    with pytest.raises(RuntimeError, match="closed"):
        sharded.recommend(user=0, k=5)


def test_dead_worker_raises_instead_of_hanging(checkpoint_dir, tiny_dataset):
    sharded = ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=2,
        worker_timeout_s=10.0,
    )
    try:
        sharded._pool.processes[0].terminate()
        sharded._pool.processes[0].join(5.0)
        with pytest.raises(RuntimeError, match="died|exited"):
            # Hit every shard so shard 0 is definitely touched.
            sharded.recommend_batch(
                [RecRequest(user=u, k=5) for u in range(12)]
            )
    finally:
        sharded.close()
    assert shm_segments() == []


def test_silent_worker_raises_within_worker_timeout(checkpoint_dir, tiny_dataset):
    """The transport's timeout arm through the real pool: an encode that
    outlasts ``worker_timeout_s`` is a named error, not a hang, and the
    wedged worker does not outlive ``close()``."""
    sharded = ShardedEngine(
        fresh_engine(checkpoint_dir, tiny_dataset), workers=1,
        worker_timeout_s=1.0,
    )
    try:
        sharded.set_faults(FaultInjector(encode_delay_s=30.0))
        started = time.monotonic()
        with pytest.raises(
            WorkerFailedError, match="scoring worker 0 did not reply within 1s"
        ):
            sharded.recommend(user=0, k=5)
        assert time.monotonic() - started < 5.0
    finally:
        sharded.close(timeout=0.3)
    assert not any(p.is_alive() for p in sharded._pool.processes)
    assert shm_segments() == []


def test_rejects_invalid_worker_count(checkpoint_dir, tiny_dataset):
    with pytest.raises(ValueError, match="workers"):
        ShardedEngine(fresh_engine(checkpoint_dir, tiny_dataset), workers=0)
