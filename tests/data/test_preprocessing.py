"""5-core filter, sequence building, splits, SequenceDataset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.log import InteractionLog
from repro.data.preprocessing import (
    MIN_CORE,
    SequenceDataset,
    build_sequences,
    five_core_filter,
    leave_one_out_split,
)


class TestFiveCore:
    def test_drops_sparse_user_and_item(self, micro_log):
        filtered = five_core_filter(micro_log)
        assert 9 not in filtered.user_ids
        assert 99 not in filtered.item_ids

    def test_keeps_dense_core(self, micro_log):
        filtered = five_core_filter(micro_log)
        assert filtered.num_users == 5
        assert set(np.unique(filtered.item_ids)) == {10, 11, 12, 13, 14}

    def test_fixed_point(self, micro_log):
        once = five_core_filter(micro_log)
        twice = five_core_filter(once)
        assert len(once) == len(twice)

    def test_cascading_removal(self):
        """Removing an item can push a user below threshold (iterative)."""
        # User 0 has exactly 5 actions but one is on a rare item.
        users = [0] * 5 + [1] * 6 + [2] * 6 + [3] * 6 + [4] * 6
        # Users 1..4 interact with items 1,2,3,4,5,6; user 0 uses item 7 once.
        items = [1, 2, 3, 4, 7]
        for __ in range(4):
            items += [1, 2, 3, 4, 5, 6]
        times = list(range(len(users)))
        log = InteractionLog(np.asarray(users), np.asarray(items), np.asarray(times, dtype=float))
        filtered = five_core_filter(log)
        # Item 7 (1 action) is dropped ⇒ user 0 falls to 4 actions ⇒ dropped.
        assert 0 not in filtered.user_ids

    def test_empty_log(self):
        empty = InteractionLog([], [], [])
        assert len(five_core_filter(empty)) == 0

    def test_everything_filtered(self):
        log = InteractionLog([0, 1], [5, 6], [1.0, 2.0])
        assert len(five_core_filter(log)) == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_postcondition(self, seed):
        """After filtering, every user and item has >= MIN_CORE actions."""
        rng = np.random.default_rng(seed)
        n = 300
        log = InteractionLog(
            rng.integers(0, 40, n), rng.integers(0, 30, n), rng.random(n)
        )
        filtered = five_core_filter(log)
        if len(filtered) == 0:
            return
        user_counts = np.bincount(filtered.user_ids)
        item_counts = np.bincount(filtered.item_ids)
        assert user_counts[np.unique(filtered.user_ids)].min() >= MIN_CORE
        assert item_counts[np.unique(filtered.item_ids)].min() >= MIN_CORE


class TestBuildSequences:
    def test_chronological_order(self):
        log = InteractionLog(
            [0, 0, 0], [7, 8, 9], [3.0, 1.0, 2.0]
        )
        sequences, num_items = build_sequences(log)
        # Item re-index preserves id order: 7→1, 8→2, 9→3.
        np.testing.assert_array_equal(sequences[0], [2, 3, 1])
        assert num_items == 3

    def test_items_reindexed_from_one(self):
        log = InteractionLog([0, 1], [100, 200], [1.0, 1.0])
        sequences, num_items = build_sequences(log)
        all_items = np.concatenate(sequences)
        assert all_items.min() == 1
        assert all_items.max() == num_items == 2

    def test_users_contiguous(self):
        log = InteractionLog([5, 5, 42, 42], [1, 2, 1, 2], [1.0, 2.0, 1.0, 2.0])
        sequences, __ = build_sequences(log)
        assert len(sequences) == 2

    def test_empty(self):
        sequences, num_items = build_sequences(InteractionLog([], [], []))
        assert sequences == []
        assert num_items == 0


class TestBuildSequencesProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), n=st.integers(1, 200))
    def test_property_every_interaction_lands_once(self, seed, n):
        rng = np.random.default_rng(seed)
        log = InteractionLog(
            rng.integers(0, 20, n), rng.integers(0, 15, n), rng.random(n)
        )
        sequences, num_items = build_sequences(log)
        assert sum(len(s) for s in sequences) == n
        if n:
            all_items = np.concatenate(sequences)
            assert all_items.min() >= 1
            assert all_items.max() <= num_items

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_chronological_within_user(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        users = rng.integers(0, 8, n)
        items = rng.integers(0, 30, n)
        times = rng.random(n)
        log = InteractionLog(users, items, times)
        sequences, __ = build_sequences(log)
        # Rebuild manually and compare per user.
        unique_users = np.unique(users)
        for position, user in enumerate(unique_users):
            mask = users == user
            order = np.argsort(times[mask], kind="stable")
            expected = items[mask][order]
            # Map raw items through the same re-indexing.
            unique_items = np.unique(items)
            remap = {raw: i + 1 for i, raw in enumerate(unique_items)}
            expected_ids = np.asarray([remap[raw] for raw in expected])
            np.testing.assert_array_equal(sequences[position], expected_ids)


class TestLeaveOneOut:
    def test_standard_split(self):
        prefix, valid, test = leave_one_out_split(np.array([1, 2, 3, 4, 5]))
        np.testing.assert_array_equal(prefix, [1, 2, 3])
        assert valid == 4
        assert test == 5

    def test_short_sequence_untouched(self):
        prefix, valid, test = leave_one_out_split(np.array([1, 2]))
        np.testing.assert_array_equal(prefix, [1, 2])
        assert valid is None
        assert test is None

    def test_exactly_three(self):
        prefix, valid, test = leave_one_out_split(np.array([1, 2, 3]))
        np.testing.assert_array_equal(prefix, [1])
        assert (valid, test) == (2, 3)


class TestSequenceDataset:
    def test_from_log_pipeline(self, micro_log):
        ds = SequenceDataset.from_log(micro_log, name="micro")
        assert ds.name == "micro"
        assert ds.num_users == 5
        assert ds.num_items == 5
        assert ds.statistics["users"] == 5

    def test_mask_token_and_vocab(self, micro_log):
        ds = SequenceDataset.from_log(micro_log)
        assert ds.mask_token == ds.num_items + 1
        assert ds.vocab_size == ds.num_items + 2

    def test_targets_are_last_two_items(self, micro_log):
        ds = SequenceDataset.from_log(micro_log)
        for u in range(ds.num_users):
            full = np.concatenate(
                [ds.train_sequences[u], [ds.valid_targets[u], ds.test_targets[u]]]
            )
            assert len(full) == 7  # micro_log users have 7 actions each

    def test_evaluation_users(self, micro_log):
        ds = SequenceDataset.from_log(micro_log)
        np.testing.assert_array_equal(ds.evaluation_users("test"), np.arange(5))

    def test_full_sequence_valid_vs_test(self, micro_log):
        ds = SequenceDataset.from_log(micro_log)
        valid_input = ds.full_sequence(0, split="valid")
        test_input = ds.full_sequence(0, split="test")
        assert len(test_input) == len(valid_input) + 1
        assert test_input[-1] == ds.valid_targets[0]

    def test_seen_items_includes_valid_target(self, micro_log):
        ds = SequenceDataset.from_log(micro_log)
        seen = ds.seen_items(0)
        assert ds.valid_targets[0] in seen

    def test_subsample_users(self, tiny_dataset):
        half = tiny_dataset.subsample_users(0.5, seed=0)
        assert half.num_users == round(tiny_dataset.num_users * 0.5)
        assert half.num_items == tiny_dataset.num_items  # vocabulary fixed
        assert "@50%" in half.name

    def test_subsample_deterministic(self, tiny_dataset):
        a = tiny_dataset.subsample_users(0.3, seed=1)
        b = tiny_dataset.subsample_users(0.3, seed=1)
        for seq_a, seq_b in zip(a.train_sequences, b.train_sequences):
            np.testing.assert_array_equal(seq_a, seq_b)

    def test_subsample_fraction_validated(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.subsample_users(0.0)
        with pytest.raises(ValueError):
            tiny_dataset.subsample_users(1.5)
