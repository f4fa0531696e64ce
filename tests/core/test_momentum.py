"""MoCo-style momentum-contrast variant."""

import dataclasses

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRecConfig
from repro.core.momentum import MoCoCL4SRec, MoCoConfig, NegativeQueue
from repro.core.trainer import pretrain_contrastive
from repro.data.loaders import ContrastiveBatchLoader
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig
from tests.conftest import TRIM_TOLERANCES, assert_same_step, run_t_wide


def small_config():
    return CL4SRecConfig(
        sasrec=SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        ),
        augmentations=("mask",),
        rates=0.5,
        pretrain=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
    )


class TestNegativeQueue:
    def test_keys_unit_norm(self):
        queue = NegativeQueue(16, 8, np.random.default_rng(0))
        np.testing.assert_allclose(
            np.linalg.norm(queue.keys, axis=1), np.ones(16)
        )

    def test_enqueue_overwrites_fifo(self):
        queue = NegativeQueue(4, 2, np.random.default_rng(0))
        queue.enqueue(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(queue.keys[0], [1.0, 0.0])
        np.testing.assert_allclose(queue.keys[1], [0.0, 1.0])
        queue.enqueue(np.ones((3, 2)))
        # Wrapped around: positions 2, 3, 0 now hold normalized ones.
        np.testing.assert_allclose(queue.keys[0], np.ones(2) / np.sqrt(2))

    def test_enqueue_normalizes(self):
        queue = NegativeQueue(4, 3, np.random.default_rng(0))
        queue.enqueue(np.array([[10.0, 0.0, 0.0]]))
        np.testing.assert_allclose(queue.keys[0], [1.0, 0.0, 0.0])


class TestMoCoConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoCoConfig(momentum=1.0)
        with pytest.raises(ValueError):
            MoCoConfig(queue_size=0)


class TestMoCoCL4SRec:
    def test_key_tower_starts_synced(self, tiny_dataset):
        model = MoCoCL4SRec(tiny_dataset, small_config())
        query_state = model.encoder.state_dict()
        key_state = model.key_encoder.state_dict()
        for name in query_state:
            np.testing.assert_array_equal(query_state[name], key_state[name])

    def test_momentum_update_moves_key_toward_query(self, tiny_dataset):
        model = MoCoCL4SRec(
            tiny_dataset, small_config(), moco=MoCoConfig(momentum=0.5)
        )
        # Perturb the query tower, then EMA once.
        model.encoder.item_embedding.weight.data += 1.0
        before = model.key_encoder.item_embedding.weight.data.copy()
        model.momentum_update()
        after = model.key_encoder.item_embedding.weight.data
        target = model.encoder.item_embedding.weight.data
        # Key moved exactly halfway (m = 0.5).
        np.testing.assert_allclose(after, 0.5 * before + 0.5 * target)

    def test_contrastive_parameters_exclude_key_tower(self, tiny_dataset):
        model = MoCoCL4SRec(tiny_dataset, small_config())
        trainable = {id(p) for p in model.contrastive_parameters()}
        for param in model.key_encoder.parameters():
            assert id(param) not in trainable
        for param in model.key_projection.parameters():
            assert id(param) not in trainable

    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_trimmed_step_matches_t_wide_oracle(
        self, tiny_dataset, dtype, loss_tol, grad_tol
    ):
        """Query and key towers run only each view's trailing columns; the
        oracle runs both T wide.  The EMA and the queue follow the same
        step, so the key towers and queues still agree afterwards."""
        config = dataclasses.replace(small_config(), augmentations=("crop",))
        trimmed, oracle = (
            MoCoCL4SRec(tiny_dataset, config).to_dtype(dtype) for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        run_t_wide(oracle.key_encoder)
        loader = ContrastiveBatchLoader(
            tiny_dataset, trimmed.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        batch = next(iter(loader.epoch()))
        assert (batch.view_a[:, 0] == 0).all() and (batch.view_b[:, 0] == 0).all()
        assert_same_step(
            trimmed,
            oracle,
            lambda model: model.contrastive_loss(batch)[0],
            loss_tol,
            grad_tol,
        )
        np.testing.assert_allclose(
            trimmed.queue.keys, oracle.queue.keys, rtol=0, atol=grad_tol
        )

    def test_contrastive_loss_runs(self, tiny_dataset):
        model = MoCoCL4SRec(tiny_dataset, small_config())
        loader = ContrastiveBatchLoader(
            tiny_dataset, model.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        batch = next(iter(loader.epoch()))
        loss, accuracy = model.contrastive_loss(batch)
        assert np.isfinite(loss.item())
        assert 0.0 <= accuracy <= 1.0

    def test_queue_advances_during_training(self, tiny_dataset):
        model = MoCoCL4SRec(
            tiny_dataset, small_config(), moco=MoCoConfig(queue_size=64)
        )
        before = model.queue.keys.copy()
        loader = ContrastiveBatchLoader(
            tiny_dataset, model.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        model.train()
        batch = next(iter(loader.epoch()))
        model.contrastive_loss(batch)
        assert not np.array_equal(before, model.queue.keys)

    def test_eval_mode_freezes_queue_and_key_tower(self, tiny_dataset):
        model = MoCoCL4SRec(tiny_dataset, small_config())
        model.eval()
        loader = ContrastiveBatchLoader(
            tiny_dataset, model.pair_sampler, 12, 32, np.random.default_rng(0)
        )
        queue_before = model.queue.keys.copy()
        key_before = model.key_encoder.item_embedding.weight.data.copy()
        batch = next(iter(loader.epoch()))
        model.contrastive_loss(batch)
        np.testing.assert_array_equal(queue_before, model.queue.keys)
        np.testing.assert_array_equal(
            key_before, model.key_encoder.item_embedding.weight.data
        )

    def test_pretraining_beats_chance_retrieval(self, tiny_dataset):
        """The raw loss is non-stationary (the queue fills with ever
        harder real negatives), so progress is measured by retrieval
        accuracy: picking the positive among 1 + queue_size candidates
        far above chance."""
        model = MoCoCL4SRec(
            tiny_dataset,
            small_config(),
            moco=MoCoConfig(momentum=0.9, queue_size=256),
        )
        history = pretrain_contrastive(
            model,
            tiny_dataset,
            TrainConfig(epochs=5, batch_size=32, max_length=12, seed=0),
        )
        assert all(np.isfinite(history.losses))
        chance = 1.0 / (1 + 256)
        late_accuracy = np.mean(history.accuracies[-2:])
        assert late_accuracy > 10 * chance

    def test_full_fit_and_score(self, tiny_dataset):
        model = MoCoCL4SRec(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:3]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (3, tiny_dataset.num_items + 1)
