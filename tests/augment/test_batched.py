"""Batched operators: distributional equivalence with the scalar ops.

The scalar ``Crop`` / ``Mask`` / ``Reorder`` remain the reference
implementation of the paper's Eq. 4-6; these tests pin the matrix-form
operators in :mod:`repro.augment.batched` to the same laws — per-row
output lengths, element provenance, and (spot-checked) frequencies —
plus the batch-specific contracts: left-padding preserved, all-padding
rows untouched, bit-determinism under a fixed seed, and the pair
sampler's stream isolation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment import Compose, Crop, Identity, Mask, Reorder
from repro.augment.batched import (
    BatchCompose,
    BatchCrop,
    BatchIdentity,
    BatchMask,
    BatchPairSampler,
    BatchReorder,
    batched_operator,
    spawn_stream,
)
from repro.augment.compose import PairSampler

T = 12
MASK_TOKEN = 999

rows = st.lists(
    st.lists(st.integers(1, 500), min_size=0, max_size=T),
    min_size=1,
    max_size=8,
)


def make_batch(row_lists):
    """Left-pad a ragged list of rows into ``(B, T)`` + lengths."""
    padded = np.zeros((len(row_lists), T), dtype=np.int64)
    lengths = np.zeros(len(row_lists), dtype=np.int64)
    for b, row in enumerate(row_lists):
        lengths[b] = len(row)
        if row:
            padded[b, T - len(row):] = row
    return padded, lengths


def real_part(padded, lengths, b):
    return padded[b, T - lengths[b]:]


def assert_left_padded(out, out_lengths):
    for b in range(out.shape[0]):
        pad = out[b, : T - out_lengths[b]]
        np.testing.assert_array_equal(pad, np.zeros_like(pad))


class TestBatchCrop:
    @settings(max_examples=50, deadline=None)
    @given(row_lists=rows, eta=st.floats(0.05, 1.0), seed=st.integers(0, 10_000))
    def test_lengths_and_provenance(self, row_lists, eta, seed):
        padded, lengths = make_batch(row_lists)
        out, out_lengths = BatchCrop(eta)(
            padded, lengths, np.random.default_rng(seed)
        )
        assert_left_padded(out, out_lengths)
        for b, n in enumerate(lengths):
            if n == 0:
                assert out_lengths[b] == 0
                continue
            # Same law as the scalar Crop: max(1, floor(eta * n)).
            expected = max(1, int(np.floor(eta * n)))
            assert out_lengths[b] == expected
            # The view must be a contiguous slice of the source row.
            source = real_part(padded, lengths, b)
            view = real_part(out, out_lengths, b)
            assert any(
                np.array_equal(source[s : s + len(view)], view)
                for s in range(n - len(view) + 1)
            )

    def test_start_offset_is_uniform(self):
        # n=8, eta=0.5 -> crop=4, start in {0..4}: each offset should
        # appear with frequency ~1/5 over many rows.
        B = 5000
        padded, lengths = make_batch([list(range(1, 9))] * B)
        out, out_lengths = BatchCrop(0.5)(
            padded, lengths, np.random.default_rng(0)
        )
        starts = out[:, T - 4] - 1  # first kept item identifies the offset
        counts = np.bincount(starts, minlength=5)
        assert counts.sum() == B
        np.testing.assert_allclose(counts / B, np.full(5, 0.2), atol=0.03)

    def test_does_not_modify_input(self):
        padded, lengths = make_batch([[1, 2, 3, 4], [5, 6]])
        snapshot = padded.copy()
        BatchCrop(0.5)(padded, lengths, np.random.default_rng(0))
        np.testing.assert_array_equal(padded, snapshot)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchCrop(0.0)
        with pytest.raises(ValueError):
            BatchCrop(1.5)


class TestBatchMask:
    @settings(max_examples=50, deadline=None)
    @given(row_lists=rows, gamma=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_count_and_unmasked_positions(self, row_lists, gamma, seed):
        padded, lengths = make_batch(row_lists)
        out, out_lengths = BatchMask(gamma, MASK_TOKEN)(
            padded, lengths, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(out_lengths, lengths)
        assert_left_padded(out, out_lengths)
        for b, n in enumerate(lengths):
            view = real_part(out, out_lengths, b)
            source = real_part(padded, lengths, b)
            # Same law as the scalar Mask: floor(gamma * n) masked,
            # everything else byte-identical.
            assert (view == MASK_TOKEN).sum() == int(np.floor(gamma * n))
            keep = view != MASK_TOKEN
            np.testing.assert_array_equal(view[keep], source[keep])

    def test_positions_uniform(self):
        # gamma=0.5 over n=8: every position masked with probability 1/2.
        B = 5000
        padded, lengths = make_batch([list(range(1, 9))] * B)
        out, __ = BatchMask(0.5, MASK_TOKEN)(
            padded, lengths, np.random.default_rng(1)
        )
        freq = (out[:, T - 8 :] == MASK_TOKEN).mean(axis=0)
        np.testing.assert_allclose(freq, np.full(8, 0.5), atol=0.03)

    def test_padding_never_masked(self):
        padded, lengths = make_batch([[7], [], [1, 2, 3]])
        out, __ = BatchMask(1.0, MASK_TOKEN)(
            padded, lengths, np.random.default_rng(2)
        )
        assert (out[:, : T - 3] == MASK_TOKEN).sum() == 0
        assert (out[0, -1], out[2, -1]) == (MASK_TOKEN, MASK_TOKEN)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchMask(-0.1, MASK_TOKEN)
        with pytest.raises(ValueError):
            BatchMask(0.5, mask_token=0)


class TestBatchReorder:
    @settings(max_examples=50, deadline=None)
    @given(row_lists=rows, beta=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_permutation_window(self, row_lists, beta, seed):
        padded, lengths = make_batch(row_lists)
        out, out_lengths = BatchReorder(beta)(
            padded, lengths, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(out_lengths, lengths)
        assert_left_padded(out, out_lengths)
        for b, n in enumerate(lengths):
            view = real_part(out, out_lengths, b)
            source = real_part(padded, lengths, b)
            # Same law as the scalar Reorder: a permutation confined to
            # one window of floor(beta * n) positions.
            np.testing.assert_array_equal(np.sort(view), np.sort(source))
            window = int(np.floor(beta * n))
            diff = np.flatnonzero(view != source)
            if window < 2:
                assert len(diff) == 0
            elif len(diff):
                assert diff.max() - diff.min() < window

    def test_single_item_rows_are_fixed_points(self):
        padded, lengths = make_batch([[3], [9]])
        out, __ = BatchReorder(1.0)(padded, lengths, np.random.default_rng(0))
        np.testing.assert_array_equal(out, padded)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchReorder(-0.1)
        with pytest.raises(ValueError):
            BatchReorder(1.2)


class TestSharedContracts:
    OPS = [
        BatchCrop(0.5),
        BatchMask(0.5, MASK_TOKEN),
        BatchReorder(0.8),
        BatchIdentity(),
        BatchCompose([BatchCrop(0.7), BatchMask(0.4, MASK_TOKEN)]),
    ]
    IDS = ["crop", "mask", "reorder", "identity", "compose"]

    @pytest.mark.parametrize("op", OPS, ids=IDS)
    def test_deterministic_under_fixed_seed(self, op):
        padded, lengths = make_batch([[1, 2, 3, 4, 5, 6], [7, 8], []])
        a = op(padded, lengths, np.random.default_rng(42))
        b = op(padded, lengths, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("op", OPS, ids=IDS)
    def test_all_padding_rows_pass_through(self, op):
        padded, lengths = make_batch([[], []])
        out, out_lengths = op(padded, lengths, np.random.default_rng(0))
        np.testing.assert_array_equal(out, padded)
        np.testing.assert_array_equal(out_lengths, lengths)

    @pytest.mark.parametrize("op", OPS, ids=IDS)
    def test_shape_validation(self, op):
        with pytest.raises(ValueError):
            op(np.zeros((2, 3, 4), dtype=np.int64), np.zeros(2), None)
        with pytest.raises(ValueError):
            op(np.zeros((2, 4), dtype=np.int64), np.zeros(3), None)
        with pytest.raises(ValueError):
            op(np.zeros((2, 4), dtype=np.int64), np.array([1, 5]), None)


class TestBatchedOperatorDispatch:
    def test_known_operators_map_to_matrix_forms(self):
        assert isinstance(batched_operator(Crop(0.5)), BatchCrop)
        assert isinstance(batched_operator(Mask(0.5, mask_token=9)), BatchMask)
        assert isinstance(batched_operator(Reorder(0.5)), BatchReorder)
        assert isinstance(batched_operator(Identity()), BatchIdentity)

    def test_parameters_are_preserved(self):
        assert batched_operator(Crop(0.35)).eta == 0.35
        lifted = batched_operator(Mask(0.25, mask_token=77))
        assert (lifted.gamma, lifted.mask_token) == (0.25, 77)

    def test_compose_lifts_recursively(self):
        lifted = batched_operator(Compose([Crop(0.5), Reorder(0.5)]))
        assert isinstance(lifted, BatchCompose)
        assert isinstance(lifted.operators[0], BatchCrop)
        assert isinstance(lifted.operators[1], BatchReorder)

    def test_unknown_operator_is_refused_by_name(self):
        class Custom:
            def __call__(self, seq, rng):
                return seq.copy()

        with pytest.raises(TypeError, match="Custom has no matrix form"):
            batched_operator(Custom())
        with pytest.raises(TypeError, match="Custom"):  # inside a Compose too
            batched_operator(Compose([Crop(0.5), Custom()]))

    def test_batched_operator_passes_through(self):
        op = BatchCrop(0.5)
        assert batched_operator(op) is op


class TestBatchPairSampler:
    def test_returns_two_views_per_row(self):
        padded, lengths = make_batch([[1, 2, 3, 4], [5, 6, 7], [8]])
        sampler = BatchPairSampler([BatchCrop(0.5), BatchMask(0.5, MASK_TOKEN)])
        (va, la), (vb, lb) = sampler(padded, lengths, np.random.default_rng(0))
        assert va.shape == vb.shape == padded.shape
        assert la.shape == lb.shape == lengths.shape

    def test_distinct_forces_different_operators(self):
        # With {Identity, Mask(gamma=1)} and distinct=True, exactly one
        # view of every pair must be fully masked and the other intact.
        padded, lengths = make_batch([[1, 2, 3, 4, 5]] * 64)
        sampler = BatchPairSampler(
            [BatchIdentity(), BatchMask(1.0, MASK_TOKEN)], distinct=True
        )
        (va, __), (vb, __) = sampler(padded, lengths, np.random.default_rng(7))
        for b in range(len(padded)):
            a_masked = (va[b, -5:] == MASK_TOKEN).all()
            b_masked = (vb[b, -5:] == MASK_TOKEN).all()
            assert a_masked != b_masked
            intact = vb[b] if a_masked else va[b]
            np.testing.assert_array_equal(intact, padded[b])

    def test_from_scalar_lifts_operator_set(self):
        scalar = PairSampler(
            [Crop(0.6), Mask(0.3, mask_token=9), Reorder(0.5)],
            distinct=True,
        )
        lifted = BatchPairSampler.from_scalar(scalar)
        assert [type(op) for op in lifted.operators] == [
            BatchCrop,
            BatchMask,
            BatchReorder,
        ]
        assert lifted.distinct

    def test_deterministic_under_fixed_seed(self):
        padded, lengths = make_batch([[1, 2, 3, 4, 5, 6], [7, 8, 9]])
        sampler = BatchPairSampler(
            [BatchCrop(0.5), BatchMask(0.5, MASK_TOKEN), BatchReorder(0.9)]
        )
        first = sampler(padded, lengths, np.random.default_rng(11))
        second = sampler(padded, lengths, np.random.default_rng(11))
        for (va, la), (vb, lb) in zip(first, second):
            np.testing.assert_array_equal(va, vb)
            np.testing.assert_array_equal(la, lb)

    def test_does_not_consume_from_the_caller_stream(self):
        # spawn_stream only advances the spawn counter, so the caller's
        # main bit stream is untouched — batch construction can run
        # ahead without shifting any other consumer's draws.
        padded, lengths = make_batch([[1, 2, 3]] * 8)
        sampler = BatchPairSampler([BatchCrop(0.5), BatchReorder(0.8)])
        used = np.random.default_rng(123)
        fresh = np.random.default_rng(123)
        sampler(padded, lengths, used)
        assert used.random() == fresh.random()

    def test_requires_operators(self):
        with pytest.raises(ValueError):
            BatchPairSampler([])


class TestSpawnStream:
    def test_children_are_independent_and_deterministic(self):
        a = spawn_stream(np.random.default_rng(5))
        b = spawn_stream(np.random.default_rng(5))
        assert a.random() == b.random()

    def test_successive_spawns_differ(self):
        rng = np.random.default_rng(5)
        assert spawn_stream(rng).random() != spawn_stream(rng).random()
