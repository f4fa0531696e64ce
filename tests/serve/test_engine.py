"""The batched recommendation engine."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.models.pop import Pop
from repro.models.registry import available_models, build_model
from repro.nn.serialization import CheckpointError, write_archive
from repro.runtime.checkpointing import CheckpointManager
from repro.serve.engine import (
    LRUCache,
    RecommendationEngine,
    sequence_key,
)
from repro.serve.requests import RecRequest, RequestError
from repro.serve.resilience import (
    BreakerConfig,
    ResilienceConfig,
    ResiliencePolicy,
)

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def sasrec(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    return model


@pytest.fixture(scope="module")
def gru4rec(tiny_dataset):
    """A servable model that is not SASRec."""
    model = build_model("GRU4Rec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    return model


@pytest.fixture()
def engine(sasrec, tiny_dataset):
    return RecommendationEngine(
        sasrec, tiny_dataset, max_batch_size=8, cache_size=32
    )


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put(b"a", np.array([1]))
        cache.put(b"b", np.array([2]))
        cache.get(b"a")  # refresh a; b becomes the eviction victim
        cache.put(b"c", np.array([3]))
        assert b"a" in cache and b"c" in cache and b"b" not in cache

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestRecommendation:
    def test_matches_model_recommend(self, engine, sasrec, tiny_dataset):
        for user in (0, 5, 11):
            expected = sasrec.recommend(tiny_dataset, user, k=10)
            assert np.array_equal(expected, engine.recommend(user=user).items)

    def test_scores_descend(self, engine):
        result = engine.recommend(user=0, k=10)
        assert all(a >= b for a, b in zip(result.scores, result.scores[1:]))

    def test_sequence_request_excludes_own_items(self, engine):
        sequence = [3, 5, 9]
        result = engine.recommend(sequence=sequence, k=5)
        assert not set(sequence) & set(result.items.tolist())
        assert 0 not in result.items

    def test_sequence_request_can_include_own_items(self, engine):
        result = engine.recommend(sequence=[3], k=5, exclude_seen=False)
        assert 0 not in result.items  # padding stays excluded regardless

    def test_user_out_of_range(self, engine, tiny_dataset):
        with pytest.raises(RequestError, match="out of range"):
            engine.recommend(user=tiny_dataset.num_users)

    def test_sequence_item_out_of_range(self, engine, tiny_dataset):
        with pytest.raises(RequestError, match="item ids"):
            engine.recommend(sequence=[tiny_dataset.num_items + 5])

    @pytest.mark.parametrize(
        "sequence", [(0,), (0, 0, 0), (0, 5, 0, 7), (5, 0, 7)]
    )
    def test_padding_id_is_not_an_item(self, engine, sequence):
        """An all-padding session would be answered from no history, and
        a stray 0 would shift the positions of the real items."""
        with pytest.raises(RequestError, match=r"\[1, .*0 is padding"):
            engine.recommend(sequence=sequence)


class TestCaching:
    def test_repeat_request_hits_cache(self, engine):
        first = engine.recommend(user=0)
        second = engine.recommend(user=0)
        assert not first.cached and second.cached
        assert np.array_equal(first.items, second.items)
        assert engine.metrics.counters["user_cache_hits"] == 1

    def test_within_batch_duplicates_coalesce(self, engine):
        requests = [RecRequest(user=1), RecRequest(user=1), RecRequest(user=2)]
        results = engine.recommend_batch(requests)
        assert np.array_equal(results[0].items, results[1].items)
        assert engine.metrics.counters["coalesced_requests"] == 1
        assert engine.metrics.counters["sequences_encoded"] == 2

    def test_lru_eviction_forces_reencode(self, sasrec, tiny_dataset):
        engine = RecommendationEngine(
            sasrec, tiny_dataset, max_batch_size=4, cache_size=2
        )
        engine.recommend(user=0)
        engine.recommend(user=1)
        engine.recommend(user=2)  # evicts user 0
        assert not engine.recommend(user=0).cached

    def test_warm_then_serve(self, engine, tiny_dataset):
        encoded = engine.warm(np.array([0, 1, 2, 3, 4, 3, 0]))
        assert encoded == 5  # each distinct history once
        assert engine.metrics.counters["sequences_encoded"] == 5
        assert engine.recommend(user=3).cached

    def test_invalidate_cache(self, engine):
        engine.recommend(user=0)
        engine.invalidate_cache()
        assert not engine.recommend(user=0).cached

    def test_identical_sequences_share_a_key(self):
        assert sequence_key(np.array([1, 2])) == sequence_key([1, 2])
        assert sequence_key([1, 2]) != sequence_key([2, 1])

    def test_batch_larger_than_cache_still_serves(self, sasrec, tiny_dataset):
        """Same-batch cache churn must not lose encoded rows: with
        cache_size=1, every put evicts the previous key, so batch
        assembly has to read from the rows computed this call rather
        than from the (already-evicted) cache."""
        tiny = RecommendationEngine(
            sasrec, tiny_dataset, max_batch_size=4, cache_size=1
        )
        big = RecommendationEngine(
            sasrec, tiny_dataset, max_batch_size=4, cache_size=64
        )
        requests = [RecRequest(user=u) for u in range(6)]
        small_results = tiny.recommend_batch(requests)
        big_results = big.recommend_batch(requests)
        for small, large in zip(small_results, big_results):
            assert small.error is None
            np.testing.assert_array_equal(small.items, large.items)


class TestBackends:
    def test_fallback_backend_matches_recommend(self, gru4rec, tiny_dataset):
        from repro.retrieval import ExactIndex

        engine = RecommendationEngine(gru4rec, tiny_dataset)
        assert isinstance(engine.index, ExactIndex)  # the one backend
        expected = gru4rec.recommend(tiny_dataset, 0, k=5)
        assert np.array_equal(expected, engine.recommend(user=0, k=5).items)

    def test_unservable_model_rejected(self, tiny_dataset):
        pop = Pop()
        pop.fit(tiny_dataset)
        with pytest.raises(TypeError, match="cannot be served"):
            RecommendationEngine(pop, tiny_dataset)

    @pytest.mark.parametrize("name", available_models())
    def test_every_registered_model_is_served_or_rejected(
        self, name, tiny_dataset
    ):
        """Conformance: a registered model is either served through the
        one backend, with the lists ``model.recommend`` produces, or
        refused at construction — there is no private third path."""
        from repro.retrieval import ExactIndex

        model = build_model(name, tiny_dataset, SCALE)
        try:
            engine = RecommendationEngine(model, tiny_dataset)
        except TypeError as error:
            assert "cannot be served" in str(error)
            assert not (
                hasattr(model, "encode_sequences")
                and hasattr(model, "item_embedding_matrix")
            )
            return
        assert isinstance(engine.index, ExactIndex)
        for user in range(4):
            expected = model.recommend(tiny_dataset, user, k=10)
            assert np.array_equal(
                expected, engine.recommend(user=user, k=10).items
            )


class TestFromCheckpoint:
    def test_loads_manager_directory(self, sasrec, tiny_dataset, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpts")
        state = {f"model/{k}": v for k, v in sasrec.state_dict().items()}
        manager.save(1, state)
        fresh = build_model("SASRec", tiny_dataset, SCALE)
        engine = RecommendationEngine.from_checkpoint(
            tmp_path / "ckpts", fresh, tiny_dataset
        )
        expected = sasrec.recommend(tiny_dataset, 0, k=5)
        assert np.array_equal(expected, engine.recommend(user=0, k=5).items)

    def test_loads_bare_state_dict_archive(self, sasrec, tiny_dataset, tmp_path):
        path = tmp_path / "weights.npz"
        write_archive(path, sasrec.state_dict())
        fresh = build_model("SASRec", tiny_dataset, SCALE)
        engine = RecommendationEngine.from_checkpoint(path, fresh, tiny_dataset)
        expected = sasrec.recommend(tiny_dataset, 0, k=5)
        assert np.array_equal(expected, engine.recommend(user=0, k=5).items)

    def test_empty_directory_raises(self, sasrec, tiny_dataset, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            RecommendationEngine.from_checkpoint(
                tmp_path / "empty", sasrec, tiny_dataset
            )

    def test_float64_checkpoint_serves_in_float32(self, sasrec, tiny_dataset, tmp_path):
        """A checkpoint written when the core ran in float64 loads rounded
        once; the model keeps serving in float32."""
        state = {k: v.astype(np.float64) for k, v in sasrec.state_dict().items()}
        state["encoder.item_embedding.weight"] += 1e-12  # not float32-representable
        path = tmp_path / "float64.npz"
        write_archive(path, state)
        fresh = build_model("SASRec", tiny_dataset, SCALE)
        engine = RecommendationEngine.from_checkpoint(path, fresh, tiny_dataset)
        assert {p.data.dtype for p in fresh.parameters()} == {np.dtype(np.float32)}
        for name, values in fresh.state_dict().items():
            np.testing.assert_array_equal(values, state[name].astype(np.float32))
        assert engine.index.matrix.dtype == np.float32

    def test_mismatched_model_raises(self, sasrec, tiny_dataset, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpts")
        state = {f"model/{k}": v for k, v in sasrec.state_dict().items()}
        manager.save(1, state)
        wrong = build_model(
            "SASRec", tiny_dataset, ExperimentScale(epochs=1, dim=32, max_length=12)
        )
        with pytest.raises(CheckpointError, match="does not fit"):
            RecommendationEngine.from_checkpoint(
                tmp_path / "ckpts", wrong, tiny_dataset
            )


class TestMetricsIntegration:
    def test_stage_latencies_recorded(self, engine):
        engine.recommend_batch([RecRequest(user=0), RecRequest(user=1)])
        snap = engine.metrics.snapshot()
        for stage in ("resolve", "encode", "score", "topk", "total"):
            assert snap["latency"][stage]["count"] >= 1
        assert snap["counters"]["requests"] == 2

    def test_accounting_of_a_mixed_batch(self, sasrec, tiny_dataset):
        """Every counter and stage-histogram count of two mixed batches,
        as literals recorded from the engine before its stages were
        split: a stage that runs twice or counts a request twice moves
        one of them."""
        policy = ResiliencePolicy(
            ResilienceConfig(breaker=BreakerConfig(window=8, min_calls=2)),
            clock=lambda: 100.0,
        )
        engine = RecommendationEngine(
            sasrec, tiny_dataset, max_batch_size=8, cache_size=32, resilience=policy
        )
        assert engine.warm(np.array([0, 1])) == 2
        mixed = [
            RecRequest(user=0),  # cache hit
            RecRequest(user=1),  # cache hit
            RecRequest(sequence=[3, 5, 9]),  # miss, encoded
            RecRequest(sequence=[3, 5, 9]),  # coalesced with the miss
            RecRequest(user=tiny_dataset.num_users),  # bad request
            RecRequest(user=2, deadline_ms=5.0),  # budget spent on arrival
        ]
        results = engine.recommend_batch(mixed, started=99.0, on_error="report")
        assert [r.error for r in results] == [
            None, None, None, None, "bad_request", "deadline_exceeded",
        ]
        assert [r.cached for r in results] == [True, True, False, True, False, False]

        policy.breaker.record(False)
        policy.breaker.record(False)  # open: misses degrade, hits are tier "cache"
        degraded = engine.recommend_batch(
            [RecRequest(user=0), RecRequest(user=1), RecRequest(sequence=[7, 8])]
        )
        assert [r.fallback for r in degraded] == ["cache", "cache", "popularity"]

        snap = engine.metrics.snapshot()
        counters = {
            name: snap["counters"][name]
            for name in (
                "requests", "batches", "user_cache_hits", "user_cache_misses",
                "coalesced_requests", "sequences_encoded", "items_scored",
                "requests_degraded", "fallback_cache", "fallback_popularity",
                "deadline_exceeded", "encode_errors", "breaker_transitions",
            )
        }
        assert counters == {
            "requests": 9, "batches": 2, "user_cache_hits": 5,
            "user_cache_misses": 4, "coalesced_requests": 1,
            "sequences_encoded": 3, "items_scored": 476,
            "requests_degraded": 3, "fallback_cache": 2,
            "fallback_popularity": 1, "deadline_exceeded": 1,
            "encode_errors": 0, "breaker_transitions": 1,
        }
        assert {
            stage: snap["latency"][stage]["count"]
            for stage in ("resolve", "encode", "score", "topk", "total")
        } == {"resolve": 2, "encode": 2, "score": 2, "topk": 2, "total": 2}


class TestRetrievalIndex:
    """The engine behind the ItemIndex protocol (ISSUE 7)."""

    def test_default_index_is_exact(self, engine):
        from repro.retrieval import ExactIndex

        assert isinstance(engine.index, ExactIndex)
        assert engine.index.num_rows == engine.dataset.num_items + 1

    def test_kind_string_selects_index(self, sasrec, tiny_dataset):
        from repro.retrieval import IVFIndex

        engine = RecommendationEngine(sasrec, tiny_dataset, index="ivf")
        assert isinstance(engine.index, IVFIndex)
        assert engine.index.is_built

    def test_full_probe_ivf_matches_exact_engine(self, sasrec, tiny_dataset):
        from repro.retrieval import make_index

        num_items = tiny_dataset.num_items
        exact = RecommendationEngine(sasrec, tiny_dataset)
        approx = RecommendationEngine(
            sasrec,
            tiny_dataset,
            index=make_index(
                "ivf", nlist=8, nprobe=8, rerank=num_items + 1
            ),
        )
        for user in range(6):
            a = exact.recommend(user=user, k=10)
            b = approx.recommend(user=user, k=10)
            assert np.array_equal(a.items, b.items)

    def test_prebuilt_index_on_wrong_matrix_rejected(self, sasrec, tiny_dataset):
        from repro.retrieval import ExactIndex, IndexMismatchError

        rng = np.random.default_rng(0)
        stale = ExactIndex().build(
            rng.normal(size=(tiny_dataset.num_items + 1, 16)).astype(np.float32)
        )
        with pytest.raises(IndexMismatchError, match="rebuild the artifact"):
            RecommendationEngine(sasrec, tiny_dataset, index=stale)

    def test_float64_index_artifact_names_the_dtypes(self, sasrec, tiny_dataset, tmp_path):
        """An artifact written while models served in float64 holds a
        float64 matrix: loading it against the float32 model is refused
        with both dtypes named and the command that rebuilds it."""
        from repro.retrieval import IndexMismatchError, load_index, make_index

        matrix = np.ascontiguousarray(sasrec.item_embedding_matrix(tiny_dataset.num_items))
        path = tmp_path / "old.npz"
        make_index("ivf", nlist=4).build(matrix.astype(np.float64)).save(path)
        stale = load_index(path)
        with pytest.raises(
            IndexMismatchError,
            match=r"holds a float64 item matrix but the model serves float32; "
            r"rebuild the artifact with 'repro index'",
        ):
            RecommendationEngine(sasrec, tiny_dataset, index=stale)

    def test_prebuilt_matching_index_is_adopted(self, sasrec, tiny_dataset):
        from repro.retrieval import ExactIndex

        matrix = np.ascontiguousarray(
            sasrec.item_embedding_matrix(tiny_dataset.num_items)
        )
        prebuilt = ExactIndex().build(matrix)
        engine = RecommendationEngine(sasrec, tiny_dataset, index=prebuilt)
        assert engine.index is prebuilt

    def test_fallback_backend_rejects_index(self, gru4rec, tiny_dataset):
        """GRU4Rec accepts ``index='ivf'``: full probe equals exact."""
        from repro.retrieval import IVFIndex, make_index

        exact = RecommendationEngine(gru4rec, tiny_dataset)
        approx = RecommendationEngine(gru4rec, tiny_dataset, index="ivf")
        assert isinstance(approx.index, IVFIndex) and approx.index.is_built
        full_probe = RecommendationEngine(
            gru4rec,
            tiny_dataset,
            index=make_index(
                "ivf", nlist=8, nprobe=8, rerank=tiny_dataset.num_items + 1
            ),
        )
        for user in range(6):
            a = exact.recommend(user=user, k=10)
            b = full_probe.recommend(user=user, k=10)
            assert np.array_equal(a.items, b.items)

    def test_index_counters_recorded(self, sasrec, tiny_dataset):
        engine = RecommendationEngine(
            sasrec, tiny_dataset, index="ivf", max_batch_size=8
        )
        snap = engine.metrics.snapshot()["counters"]
        assert snap["index_candidates_scored"] == 0  # pre-registered
        engine.recommend_batch([RecRequest(user=0), RecRequest(user=1)])
        snap = engine.metrics.snapshot()["counters"]
        assert snap["index_clusters_probed"] > 0
        assert snap["index_candidates_scored"] > 0
        assert snap["items_scored"] == snap["index_candidates_scored"]

    def test_exact_index_items_scored_matches_legacy(self, engine):
        engine.recommend_batch([RecRequest(user=0), RecRequest(user=1)])
        counters = engine.metrics.snapshot()["counters"]
        assert counters["items_scored"] == 2 * (engine.dataset.num_items + 1)

    def test_health_reports_index_stats(self, engine):
        from repro.serve.server import RecommendationServer

        server = RecommendationServer(engine, port=0)
        try:
            payload = server.health()
            assert payload["index"]["kind"] == "exact"
            assert payload["index"]["num_rows"] == engine.dataset.num_items + 1
        finally:
            server.httpd.server_close()
