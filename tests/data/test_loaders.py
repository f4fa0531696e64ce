"""Padding, negative sampling and batch loaders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment.compose import PairSampler
from repro.augment.crop import Crop
from repro.data.loaders import (
    ContrastiveBatchLoader,
    NegativeSampler,
    NextItemBatch,
    NextItemBatchLoader,
    RowBatchLoader,
    interaction_rows,
    pad_left,
    transition_rows,
)


class TestPadLeft:
    def test_pads_on_left(self):
        out = pad_left(np.array([1, 2, 3]), 5)
        np.testing.assert_array_equal(out, [0, 0, 1, 2, 3])

    def test_truncates_keeping_last(self):
        out = pad_left(np.array([1, 2, 3, 4, 5]), 3)
        np.testing.assert_array_equal(out, [3, 4, 5])

    def test_exact_length(self):
        out = pad_left(np.array([1, 2]), 2)
        np.testing.assert_array_equal(out, [1, 2])

    def test_empty_sequence(self):
        out = pad_left(np.array([], dtype=np.int64), 3)
        np.testing.assert_array_equal(out, [0, 0, 0])

    def test_custom_pad_value(self):
        out = pad_left(np.array([7]), 3, pad_value=-1)
        np.testing.assert_array_equal(out, [-1, -1, 7])

    @settings(max_examples=25, deadline=None)
    @given(
        length=st.integers(1, 20),
        target=st.integers(1, 20),
    )
    def test_property_always_target_length(self, length, target):
        seq = np.arange(1, length + 1)
        assert len(pad_left(seq, target)) == target


class TestNegativeSampler:
    def test_avoids_positives(self):
        rng = np.random.default_rng(0)
        sampler = NegativeSampler(50, rng)
        positives = rng.integers(1, 51, size=(100, 10))
        negatives = sampler.sample(positives)
        assert not (negatives == positives).any()

    def test_range(self):
        sampler = NegativeSampler(10, np.random.default_rng(1))
        negatives = sampler.sample(np.ones((200,), dtype=np.int64))
        assert negatives.min() >= 1
        assert negatives.max() <= 10

    def test_two_items_edge_case(self):
        sampler = NegativeSampler(2, np.random.default_rng(2))
        positives = np.full(50, 1)
        negatives = sampler.sample(positives)
        assert (negatives == 2).all()

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            NegativeSampler(1, np.random.default_rng(0))


class TestNextItemBatchLoader:
    def make_loader(self, dataset, batch_size=32, max_length=10):
        return NextItemBatchLoader(
            dataset, max_length, batch_size, np.random.default_rng(0)
        )

    def test_target_is_next_item(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        for row, user in enumerate(batch.users):
            seq = tiny_dataset.train_sequences[user]
            inputs = batch.inputs[row]
            targets = batch.targets[row]
            # Wherever both are real, target at t equals input at t+1.
            real = (inputs[:-1] > 0) & (targets[:-1] > 0)
            np.testing.assert_array_equal(
                targets[:-1][real], inputs[1:][real]
            )
            # Last target is the sequence's last training item.
            assert targets[-1] == seq[-1]

    def test_mask_matches_targets(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        np.testing.assert_array_equal(batch.mask, (batch.targets > 0).astype(float))

    def test_negatives_differ_from_targets(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        real = batch.mask > 0
        assert not (batch.negatives[real] == batch.targets[real]).any()

    def test_epoch_covers_all_eligible_users(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=17)
        seen = np.concatenate([b.users for b in loader.epoch()])
        assert len(np.unique(seen)) == len(seen)
        eligible = [
            u
            for u, s in enumerate(tiny_dataset.train_sequences)
            if len(s) >= 2
        ]
        assert set(seen) == set(eligible)

    def test_num_batches(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=17)
        assert loader.num_batches == len(list(loader.epoch()))

    def test_shapes(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=16, max_length=12)
        batch = next(iter(loader.epoch()))
        assert batch.inputs.shape == (16, 12)
        assert batch.targets.shape == (16, 12)
        assert batch.negatives.shape == (16, 12)


class TestLengthBucketedEpochs:
    """A next-item epoch permutes the users, stably sorts them by history
    length, cuts batches and yields them in a random order, each
    weighted by its share of the epoch's real positions."""

    def make_loader(self, dataset, pipeline="reference", seed=0, worker_shard=None):
        return NextItemBatchLoader(
            dataset,
            10,
            17,
            np.random.default_rng(seed),
            pipeline=pipeline,
            worker_shard=worker_shard,
        )

    @staticmethod
    def history_lengths(batch):
        return np.count_nonzero(batch.inputs, axis=1)

    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_every_eligible_user_once_per_epoch(self, tiny_dataset, pipeline):
        loader = self.make_loader(tiny_dataset, pipeline)
        for __ in range(3):
            seen = np.concatenate([batch.users for batch in loader.epoch()])
            assert sorted(seen) == sorted(loader.users)

    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_batches_are_length_buckets(self, tiny_dataset, pipeline):
        batches = list(self.make_loader(tiny_dataset, pipeline).epoch())
        spans = sorted(
            (int(lengths.min()), int(lengths.max()))
            for lengths in map(self.history_lengths, batches)
        )
        assert len(spans) > 2
        for (__, longest), (shortest, __) in zip(spans, spans[1:]):
            assert longest <= shortest
        # ... and they are not yielded shortest first.
        firsts = [int(self.history_lengths(batch).min()) for batch in batches]
        assert firsts != sorted(firsts)

    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_seeded_epoch_is_reproducible(self, tiny_dataset, pipeline):
        runs = [
            list(self.make_loader(tiny_dataset, pipeline, seed=3).epoch())
            for __ in range(2)
        ]
        assert len(runs[0]) == len(runs[1])
        for left, right in zip(*runs):
            np.testing.assert_array_equal(left.users, right.users)
            np.testing.assert_array_equal(left.negatives, right.negatives)

    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_weights_are_real_positions_over_the_mean(self, tiny_dataset, pipeline):
        """A batch's weight is its real positions over the epoch's mean
        per batch, so every real position of an epoch weighs the same."""
        batches = list(self.make_loader(tiny_dataset, pipeline).epoch())
        positions = np.array([batch.mask.sum() for batch in batches])
        np.testing.assert_allclose(
            [batch.weight for batch in batches], positions / positions.mean()
        )

    def test_worker_shards_partition_the_users(self, tiny_dataset):
        everyone = self.make_loader(tiny_dataset).users
        shards = [
            np.concatenate([b.users for b in loader.epoch()])
            for loader in (
                self.make_loader(tiny_dataset, worker_shard=(w, 3)) for w in range(3)
            )
        ]
        for w, users in enumerate(shards):
            assert sorted(users) == sorted(everyone[w::3])
        assert sorted(np.concatenate(shards)) == sorted(everyone)


class TestContrastiveBatchLoader:
    def make_loader(self, dataset, batch_size=32, max_length=10):
        sampler = PairSampler([Crop(0.7)])
        return ContrastiveBatchLoader(
            dataset, sampler, max_length, batch_size, np.random.default_rng(0)
        )

    def test_two_views_padded(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        assert batch.view_a.shape == batch.view_b.shape == (32, 10)
        # Views are left-padded: any zero entries precede real ones.
        for row in batch.view_a:
            nonzero = np.flatnonzero(row)
            if len(nonzero):
                assert (row[nonzero[0] :] > 0).all()

    def test_views_differ_between_a_and_b(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        assert not np.array_equal(batch.view_a, batch.view_b)

    def test_min_two_users_per_batch(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=64)
        for batch in loader.epoch():
            assert len(batch.users) >= 2


@pytest.mark.parametrize("remainder", [0, 1, 2])
@pytest.mark.parametrize(
    "loader_tests", [TestNextItemBatchLoader, TestContrastiveBatchLoader]
)
def test_num_batches_is_what_epoch_yields(tiny_dataset, loader_tests, remainder):
    """Steps per epoch has one source of truth — including the 1-user
    remainder chunk a contrastive epoch skips (no in-batch negative)."""
    eligible = len(loader_tests().make_loader(tiny_dataset).users)
    batch_size = eligible - remainder
    assert eligible % batch_size == remainder
    loader = loader_tests().make_loader(tiny_dataset, batch_size=batch_size)
    assert len(list(loader.epoch())) == loader.num_batches


class TestPaddedPositionNegatives:
    """The pad-id contract: negatives never carry real items at padding.

    Historical bug: padded positions used to receive the fixed item id
    1 instead of the pad id 0.  The masked BCE zeroes those positions
    either way, so the fix is numerically invisible (asserted below) —
    but batches are cleaner to inspect and no real item id leaks into
    slots that represent "nothing".
    """

    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_negatives_are_pad_id_at_padded_positions(
        self, tiny_dataset, pipeline
    ):
        loader = NextItemBatchLoader(
            tiny_dataset,
            max_length=12,
            batch_size=32,
            rng=np.random.default_rng(0),
            pipeline=pipeline,
        )
        for batch in loader.epoch():
            padded = batch.mask == 0.0
            assert (batch.negatives[padded] == 0).all()
            # Real positions still hold genuine sampled items.
            assert (batch.negatives[~padded] > 0).all()

    def test_padded_negatives_never_reach_the_loss(self, tiny_dataset):
        # Replacing the padded-position negative ids with arbitrary
        # real items must change neither the loss nor any gradient.
        from repro.models.sasrec import SASRec, SASRecConfig
        from repro.models.training import TrainConfig

        model = SASRec(
            tiny_dataset,
            SASRecConfig(dim=16, train=TrainConfig(max_length=12)),
        )
        model.eval()  # no dropout draws: forwards are comparable
        loader = NextItemBatchLoader(
            tiny_dataset,
            max_length=12,
            batch_size=32,
            rng=np.random.default_rng(0),
        )
        batch = next(iter(loader.epoch()))

        def loss_and_grads(tampered_negatives):
            for param in model.parameters():
                param.grad = None
            loss = model.sequence_loss(
                NextItemBatch(
                    batch.users,
                    batch.inputs,
                    batch.targets,
                    tampered_negatives,
                    batch.mask,
                )
            )
            loss.backward()
            return loss.item(), [
                None if p.grad is None else p.grad.copy()
                for p in model.parameters()
            ]

        tampered = batch.negatives.copy()
        tampered[batch.mask == 0.0] = 7  # any real item id
        base_loss, base_grads = loss_and_grads(batch.negatives)
        tampered_loss, tampered_grads = loss_and_grads(tampered)
        assert base_loss == tampered_loss
        for left, right in zip(base_grads, tampered_grads):
            if left is None:
                assert right is None
            else:
                np.testing.assert_array_equal(left, right)


class TestRowTables:
    @pytest.mark.parametrize("window", [1, 5])
    def test_transition_rows_match_the_pad_left_loop(self, tiny_dataset, window):
        expected = [
            (user, pad_left(sequence[:t], window), sequence[t])
            for user, sequence in enumerate(tiny_dataset.train_sequences)
            for t in range(1, len(sequence))
        ]
        rows = transition_rows(tiny_dataset, window)
        assert len(rows.users) == len(expected)
        np.testing.assert_array_equal(rows.users, [e[0] for e in expected])
        np.testing.assert_array_equal(rows.context, np.stack([e[1] for e in expected]))
        np.testing.assert_array_equal(rows.positives, [e[2] for e in expected])

    def test_interaction_rows_are_every_interaction_in_user_order(self, tiny_dataset):
        rows = interaction_rows(tiny_dataset)
        np.testing.assert_array_equal(
            rows.positives, np.concatenate(tiny_dataset.train_sequences)
        )
        assert rows.context is None
        for user in (0, 5):
            np.testing.assert_array_equal(
                rows.positives[rows.users == user], tiny_dataset.train_sequences[user]
            )


class TestRowBatchLoader:
    def make_loader(self, num_rows=10, batch_size=4, worker_shard=None):
        return RowBatchLoader(
            num_rows,
            batch_size,
            np.random.default_rng(0),
            build=lambda index: index,
            worker_shard=worker_shard,
        )

    def test_epoch_is_a_permutation_in_batches(self):
        loader = self.make_loader()
        chunks = list(loader.epoch())
        assert len(chunks) == loader.num_batches == 3
        assert sorted(np.concatenate(chunks)) == list(range(10))

    def test_shards_partition_the_table(self):
        shards = [
            np.concatenate(list(self.make_loader(worker_shard=(w, 3)).epoch()))
            for w in range(3)
        ]
        for w, rows in enumerate(shards):
            assert sorted(rows) == list(range(w, 10, 3))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self.make_loader(num_rows=0)
