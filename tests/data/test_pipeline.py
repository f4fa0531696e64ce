"""Precomputed padded views: equivalence with per-row pad_left; the
cycling stream; same-seed determinism of the vectorized loaders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment import Crop, Mask, PairSampler, Reorder
from repro.data.loaders import ContrastiveBatchLoader, NextItemBatchLoader, pad_left
from repro.data.pipeline import (
    CyclingStream,
    PaddedViews,
    build_padded_views,
    padded_views,
    validate_pipeline,
)
from tests.conftest import make_tiny_dataset

ragged = st.lists(
    st.lists(st.integers(1, 300), min_size=0, max_size=30).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    min_size=0,
    max_size=12,
)


def reference_views(train_sequences, max_length):
    """The scalar construction the loaders used before vectorization."""
    inputs = np.stack(
        [pad_left(s[:-1], max_length) for s in train_sequences]
    ) if train_sequences else np.zeros((0, max_length), dtype=np.int64)
    targets = np.stack(
        [pad_left(s[1:], max_length) for s in train_sequences]
    ) if train_sequences else np.zeros((0, max_length), dtype=np.int64)
    sequences = np.stack(
        [pad_left(s, max_length) for s in train_sequences]
    ) if train_sequences else np.zeros((0, max_length), dtype=np.int64)
    lengths = np.array(
        [min(len(s), max_length) for s in train_sequences], dtype=np.int64
    )
    return inputs, targets, sequences, lengths


class TestBuildPaddedViews:
    @settings(max_examples=60, deadline=None)
    @given(train_sequences=ragged, max_length=st.integers(1, 16))
    def test_matches_per_row_pad_left(self, train_sequences, max_length):
        views = build_padded_views(train_sequences, max_length, num_items=300)
        inputs, targets, sequences, lengths = reference_views(
            train_sequences, max_length
        )
        np.testing.assert_array_equal(views.inputs, inputs)
        np.testing.assert_array_equal(views.targets, targets)
        np.testing.assert_array_equal(views.sequences, sequences)
        np.testing.assert_array_equal(views.lengths, lengths)

    def test_tiny_dataset_row_by_row(self):
        dataset = make_tiny_dataset()
        T = 10
        views = build_padded_views(dataset.train_sequences, T, dataset.num_items)
        for u, seq in enumerate(dataset.train_sequences):
            np.testing.assert_array_equal(views.inputs[u], pad_left(seq[:-1], T))
            np.testing.assert_array_equal(views.targets[u], pad_left(seq[1:], T))
            np.testing.assert_array_equal(views.sequences[u], pad_left(seq, T))
            assert views.lengths[u] == min(len(seq), T)

    def test_rejects_nonpositive_max_length(self):
        with pytest.raises(ValueError):
            build_padded_views([], 0, num_items=5)

    def test_input_target_shift_alignment(self):
        # targets[t] is the item following inputs[t] — the next-item
        # supervision the masked BCE trains on.
        seq = np.arange(1, 8)
        views = build_padded_views([seq], 10, num_items=10)
        real = views.targets[0] > 0
        np.testing.assert_array_equal(views.inputs[0][real], seq[:-1])
        np.testing.assert_array_equal(views.targets[0][real], seq[1:])


class TestPaddedViewsCache:
    def test_second_call_is_a_cache_hit(self):
        dataset = make_tiny_dataset()
        first = padded_views(dataset, 12)
        assert padded_views(dataset, 12) is first

    def test_distinct_lengths_get_distinct_entries(self):
        dataset = make_tiny_dataset()
        assert padded_views(dataset, 8) is not padded_views(dataset, 12)
        assert padded_views(dataset, 8).max_length == 8

    def test_dataset_mutation_invalidates(self):
        dataset = make_tiny_dataset()
        stale = padded_views(dataset, 12)
        dataset.train_sequences[0] = np.concatenate(
            [dataset.train_sequences[0], [1, 2, 3]]
        )
        fresh = padded_views(dataset, 12)
        assert fresh is not stale
        np.testing.assert_array_equal(
            fresh.sequences[0], pad_left(dataset.train_sequences[0], 12)
        )


class TestValidatePipeline:
    def test_accepts_known_switches(self):
        assert validate_pipeline("reference") == "reference"
        assert validate_pipeline("vectorized") == "vectorized"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="pipeline"):
            validate_pipeline("turbo")


def contrastive_loader(pipeline, seed=0, batch_size=64):
    dataset = make_tiny_dataset()
    sampler = PairSampler(
        [Crop(0.6), Mask(0.3, mask_token=dataset.num_items + 1), Reorder(0.5)]
    )
    return ContrastiveBatchLoader(
        dataset,
        sampler,
        max_length=12,
        batch_size=batch_size,
        rng=np.random.default_rng(seed),
        pipeline=pipeline,
    )


class TestCyclingStream:
    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_cycles_past_epoch_boundaries(self, pipeline):
        loader = contrastive_loader(pipeline)
        pulls = 2 * loader.num_batches + 1  # forces at least one restart
        stream = CyclingStream(loader)
        batches = [stream.next() for __ in range(pulls)]
        assert len(batches) == pulls
        assert all(b.view_a.shape[1] == 12 for b in batches)


class TestVectorizedDeterminism:
    def test_same_seed_same_batches(self):
        def epoch_views(seed):
            loader = contrastive_loader("vectorized", seed=seed, batch_size=32)
            return [(b.users, b.view_a, b.view_b) for b in loader.epoch()]

        first, second = epoch_views(7), epoch_views(7)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            for left, right in zip(a, b):
                np.testing.assert_array_equal(left, right)
        shifted = epoch_views(8)
        assert any(
            not np.array_equal(a[1], b[1]) for a, b in zip(first, shifted)
        )

    def test_next_item_vectorized_matches_reference(self):
        # Padding carries no randomness, so both pipelines hand every
        # user bit-identical inputs/targets/mask; only the shuffle
        # order and negative draws move to the child stream.
        def per_user(pipeline):
            loader = NextItemBatchLoader(
                make_tiny_dataset(),
                max_length=12,
                batch_size=32,
                rng=np.random.default_rng(3),
                pipeline=pipeline,
            )
            rows = {}
            for batch in loader.epoch():
                for i, user in enumerate(batch.users):
                    rows[int(user)] = (
                        batch.inputs[i], batch.targets[i], batch.mask[i]
                    )
            return rows

        ref, vec = per_user("reference"), per_user("vectorized")
        assert ref.keys() == vec.keys()
        for user in ref:
            for left, right in zip(ref[user], vec[user]):
                np.testing.assert_array_equal(left, right)
