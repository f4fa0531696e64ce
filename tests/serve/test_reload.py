"""Hot model reload: atomic swap, self-check rollback, versioning."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.nn.serialization import CheckpointError, write_archive
from repro.retrieval import make_index
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import FaultInjector
from repro.serve.engine import ModelSwapError, RecommendationEngine
from repro.serve.server import CheckpointWatcher, RecommendationServer

from tests.conftest import make_tiny_dataset

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def sasrec(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    return model


@pytest.fixture(scope="module")
def other_sasrec(tiny_dataset):
    model = build_model(
        "SASRec", tiny_dataset, SCALE.with_overrides(seed=SCALE.seed + 1)
    )
    model.fit(tiny_dataset)
    return model


def save_checkpoint(manager, step, model):
    manager.save(step, {f"model/{k}": v for k, v in model.state_dict().items()})


@pytest.fixture()
def checkpoint_dir(tmp_path, sasrec):
    manager = CheckpointManager(tmp_path / "ckpts")
    save_checkpoint(manager, 1, sasrec)
    return tmp_path / "ckpts"


@pytest.fixture()
def engine(checkpoint_dir, tiny_dataset):
    fresh = build_model("SASRec", tiny_dataset, SCALE)
    return RecommendationEngine.from_checkpoint(
        checkpoint_dir, fresh, tiny_dataset, max_batch_size=8, cache_size=32
    )


class TestSwapModel:
    def test_swap_changes_answers_and_bumps_version(
        self, engine, checkpoint_dir, other_sasrec, tiny_dataset
    ):
        before = engine.recommend(user=0, k=10)
        assert before.model_version == 1
        manager = CheckpointManager(checkpoint_dir)
        save_checkpoint(manager, 2, other_sasrec)
        info = engine.swap_model(checkpoint_dir)
        assert info["model_version"] == 2
        assert info["step"] == 2
        assert engine.model_version == 2
        after = engine.recommend(user=0, k=10)
        assert after.model_version == 2
        expected = other_sasrec.recommend(tiny_dataset, 0, k=10)
        assert np.array_equal(expected, after.items)

    def test_swap_invalidates_cache(self, engine, checkpoint_dir, other_sasrec):
        engine.recommend(user=0)
        assert len(engine.cache) > 0
        save_checkpoint(CheckpointManager(checkpoint_dir), 2, other_sasrec)
        engine.swap_model(checkpoint_dir)
        assert len(engine.cache) == 0

    def test_swap_single_archive(self, engine, tmp_path, other_sasrec, tiny_dataset):
        path = tmp_path / "new.npz"
        write_archive(path, other_sasrec.state_dict())
        info = engine.swap_model(path)
        assert info["step"] is None
        assert engine.checkpoint_path == str(path)
        expected = other_sasrec.recommend(tiny_dataset, 3, k=5)
        assert np.array_equal(expected, engine.recommend(user=3, k=5).items)

    def test_corrupt_checkpoint_refused_before_touching_weights(
        self, engine, tmp_path, other_sasrec
    ):
        path = tmp_path / "new.npz"
        write_archive(path, other_sasrec.state_dict())
        FaultInjector.corrupt_file(path, flip_byte_at=32)
        before = engine.recommend(user=0, k=10)
        with pytest.raises(CheckpointError):
            engine.swap_model(path)
        assert engine.model_version == 1
        assert engine.metrics.counters["model_swap_failures"] == 1
        after = engine.recommend(user=0, k=10)
        assert np.array_equal(before.items, after.items)

    def test_mismatched_checkpoint_rolls_back(self, engine, tmp_path, tiny_dataset):
        wrong = build_model(
            "SASRec",
            tiny_dataset,
            ExperimentScale(epochs=1, dim=32, max_length=12),
        )
        path = tmp_path / "wrong.npz"
        write_archive(path, wrong.state_dict())
        before = engine.recommend(user=0, k=10)
        with pytest.raises(CheckpointError, match="does not fit"):
            engine.swap_model(path)
        assert engine.model_version == 1
        assert np.array_equal(before.items, engine.recommend(user=0, k=10).items)

    def test_nan_checkpoint_fails_self_check_and_rolls_back(
        self, engine, tmp_path, other_sasrec
    ):
        state = {
            name: np.full_like(np.asarray(values), np.nan)
            for name, values in other_sasrec.state_dict().items()
        }
        path = tmp_path / "nan.npz"
        write_archive(path, state)
        before = engine.recommend(user=0, k=10)
        with pytest.raises(ModelSwapError, match="self-check"):
            engine.swap_model(path)
        assert engine.model_version == 1
        assert engine.metrics.counters["model_swap_rollbacks"] == 1
        assert engine.metrics.counters["model_swap_failures"] == 1
        after = engine.recommend(user=0, k=10)
        assert np.array_equal(before.items, after.items)
        assert np.all(np.isfinite(after.scores))

    def test_swap_counters(self, engine, checkpoint_dir, other_sasrec):
        save_checkpoint(CheckpointManager(checkpoint_dir), 2, other_sasrec)
        engine.swap_model(checkpoint_dir)
        assert engine.metrics.counters["model_swaps"] == 1
        snap = engine.metrics.snapshot()
        assert snap["gauges"]["model_version"] == 2


    def test_swap_event_carries_its_own_timing(
        self, engine, checkpoint_dir, other_sasrec
    ):
        events = []
        engine.observer = SimpleNamespace(
            event=lambda name, **fields: events.append((name, fields))
        )
        save_checkpoint(CheckpointManager(checkpoint_dir), 2, other_sasrec)
        engine.swap_model(checkpoint_dir)
        (name, fields), = events
        assert name == "model_swap" and fields["model_version"] == 2
        assert 0 < fields["rebuild_s"] <= fields["swap_s"] < 60


class TestSwapUnderIvfPq:
    """``rebuild`` continues the live PQ codebooks, so an ``ivf_pq``
    engine is a function of its swap history — a deterministic one, and
    one a refused swap is not part of."""

    USERS = range(24)

    @pytest.fixture(scope="class")
    def catalogue(self):
        dataset = make_tiny_dataset(num_users=800, num_items=400)
        assert dataset.num_items > 256  # full codebooks, not padded ones
        return dataset

    @pytest.fixture()
    def archives(self, tmp_path, catalogue):
        paths = []
        for seed in (1, 2):
            model = build_model(
                "SASRec", catalogue, SCALE.with_overrides(seed=SCALE.seed + seed)
            )
            paths.append(tmp_path / f"v{seed}.npz")
            write_archive(paths[-1], model.state_dict())
        return paths

    @staticmethod
    def engine_for(catalogue):
        return RecommendationEngine(
            build_model("SASRec", catalogue, SCALE),
            catalogue,
            index=make_index("ivf_pq", pq_m=4, nprobe=4, rerank=40),
            max_batch_size=8,
        )

    def served(self, engine):
        return [engine.recommend(user=u, k=10).items for u in self.USERS]

    def test_two_swaps_are_a_deterministic_history(self, catalogue, archives):
        first, second = self.engine_for(catalogue), self.engine_for(catalogue)
        for version, path in enumerate(archives, start=2):
            assert first.swap_model(path)["model_version"] == version
            second.swap_model(path)
            first._self_check(first.index)
            for ours, theirs in zip(self.served(first), self.served(second)):
                assert np.array_equal(ours, theirs)
        # ... and a history it is: a cold build on the same matrix has
        # the same cells and other codebooks.
        cold = make_index("ivf_pq", pq_m=4).build(first.index.matrix)
        assert np.array_equal(cold._centroids, first.index._centroids)
        assert not np.array_equal(
            cold._quantizer.codebooks, first.index._quantizer.codebooks
        )

    def test_refused_swaps_leave_the_live_codebooks_alone(
        self, catalogue, archives, tmp_path
    ):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(archives[1].read_bytes())
        FaultInjector.corrupt_file(corrupt, flip_byte_at=32)
        poisoned = tmp_path / "nan.npz"
        write_archive(poisoned, {
            name: np.full_like(np.asarray(values), np.nan)
            for name, values in self.engine_for(catalogue).model.state_dict().items()
        })
        clean, bumpy = self.engine_for(catalogue), self.engine_for(catalogue)
        for engine in (clean, bumpy):
            engine.swap_model(archives[0])
        with pytest.raises(CheckpointError):
            bumpy.swap_model(corrupt)
        with pytest.raises(ModelSwapError):  # reaches rebuild, rolls back
            bumpy.swap_model(poisoned)
        for engine in (clean, bumpy):
            assert engine.swap_model(archives[1])["model_version"] == 3
        ours, theirs = bumpy.index._artifact_arrays(), clean.index._artifact_arrays()
        assert all(np.array_equal(ours[name], theirs[name]) for name in theirs)
        for a, b in zip(self.served(bumpy), self.served(clean)):
            assert np.array_equal(a, b)


class TestCheckpointWatcher:
    def test_poll_reloads_newer_step(
        self, engine, checkpoint_dir, other_sasrec, tiny_dataset
    ):
        server = RecommendationServer(engine, port=0)
        try:
            watcher = CheckpointWatcher(server, str(checkpoint_dir))
            assert watcher.poll_once() is False  # step 1 is what we serve
            save_checkpoint(CheckpointManager(checkpoint_dir), 2, other_sasrec)
            assert watcher.poll_once() is True
            assert engine.model_version == 2
            assert watcher.poll_once() is False  # nothing newer
        finally:
            server.shutdown()

    def test_poll_survives_corrupt_checkpoint(
        self, engine, checkpoint_dir, other_sasrec
    ):
        server = RecommendationServer(engine, port=0)
        try:
            watcher = CheckpointWatcher(server, str(checkpoint_dir))
            watcher.poll_once()
            manager = CheckpointManager(checkpoint_dir)
            save_checkpoint(manager, 2, other_sasrec)
            FaultInjector.corrupt_file(manager.path_for(2), flip_byte_at=16)
            assert watcher.poll_once() is False
            assert engine.model_version == 1  # old weights keep serving
            assert engine.recommend(user=0).items.size > 0
        finally:
            server.shutdown()
