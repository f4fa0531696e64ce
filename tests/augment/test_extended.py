"""Substitute / Insert informative augmentations (extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment.correlation import ItemCorrelation
from repro.augment.extended import Insert, Substitute


@pytest.fixture(scope="module")
def correlation():
    rng = np.random.default_rng(0)
    # Ring-structured sequences: item i co-occurs with i±1 (mod 20).
    sequences = []
    for __ in range(60):
        start = int(rng.integers(1, 21))
        seq = [(start + k - 1) % 20 + 1 for k in range(8)]
        sequences.append(np.asarray(seq))
    return ItemCorrelation(num_items=20, window=2, top_k=5).fit(sequences)


class TestSubstitute:
    def test_length_preserved(self, correlation):
        seq = np.arange(1, 11)
        out = Substitute(0.5, correlation)(seq, np.random.default_rng(1))
        assert len(out) == len(seq)

    def test_substitution_count(self, correlation):
        seq = np.arange(1, 11)
        out = Substitute(0.5, correlation)(seq, np.random.default_rng(1))
        # At most 5 positions changed (a substitute can coincide).
        assert (out != seq).sum() <= 5

    def test_substitutes_are_correlated(self, correlation):
        seq = np.arange(1, 11)
        rng = np.random.default_rng(2)
        out = Substitute(1.0, correlation)(seq, rng)
        for position, (old, new) in enumerate(zip(seq, out)):
            if old == new:
                continue
            neighbours, __ = correlation.most_similar(int(old))
            assert new in neighbours, f"position {position}"

    def test_zero_rho_identity(self, correlation):
        seq = np.arange(1, 8)
        np.testing.assert_array_equal(
            Substitute(0.0, correlation)(seq, np.random.default_rng(0)), seq
        )

    def test_validation(self, correlation):
        with pytest.raises(ValueError):
            Substitute(1.5, correlation)

    def test_input_not_modified(self, correlation):
        seq = np.arange(1, 11)
        original = seq.copy()
        Substitute(1.0, correlation)(seq, np.random.default_rng(0))
        np.testing.assert_array_equal(seq, original)


class TestInsert:
    def test_lengthens_sequence(self, correlation):
        seq = np.arange(1, 11)
        out = Insert(0.5, correlation)(seq, np.random.default_rng(1))
        assert len(out) == 15  # 10 + floor(0.5 * 10)

    def test_original_order_preserved_as_subsequence(self, correlation):
        seq = np.arange(1, 11)
        out = Insert(0.5, correlation)(seq, np.random.default_rng(2))
        # seq must be a subsequence of out.
        it = iter(out)
        assert all(any(x == y for y in it) for x in seq)

    def test_inserted_items_correlated_with_predecessor(self, correlation):
        seq = np.asarray([3, 7, 12])
        rng = np.random.default_rng(3)
        out = Insert(1.0, correlation)(seq, rng)
        assert len(out) == 6
        # Every second element is an insertion after its predecessor.
        for position in (1, 3, 5):
            predecessor = int(out[position - 1])
            inserted = int(out[position])
            neighbours, __ = correlation.most_similar(predecessor)
            assert inserted in neighbours or inserted == predecessor

    def test_zero_mu_identity(self, correlation):
        seq = np.arange(1, 8)
        np.testing.assert_array_equal(
            Insert(0.0, correlation)(seq, np.random.default_rng(0)), seq
        )

    def test_validation(self, correlation):
        with pytest.raises(ValueError):
            Insert(-0.1, correlation)

    @settings(max_examples=25, deadline=None)
    @given(mu=st.floats(0.0, 1.0), seed=st.integers(0, 5000))
    def test_property_length(self, correlation, mu, seed):
        seq = np.arange(1, 13)
        out = Insert(mu, correlation)(seq, np.random.default_rng(seed))
        assert len(out) == 12 + int(np.floor(mu * 12))


class TestIntegrationWithCL4SRec:
    def test_extended_operators_usable_in_model(self, tiny_dataset):
        """Substitute/Insert plug into CL4SRec via the operators arg."""
        from repro.core.cl4srec import CL4SRec, CL4SRecConfig
        from repro.models.sasrec import SASRecConfig
        from repro.models.training import TrainConfig

        correlation = ItemCorrelation(tiny_dataset.num_items, window=2).fit(
            tiny_dataset.train_sequences
        )
        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            ),
            pretrain=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        )
        model = CL4SRec(
            tiny_dataset,
            config,
            operators=[Substitute(0.3, correlation), Insert(0.3, correlation)],
        )
        history = model.fit(tiny_dataset)
        assert len(history.losses) == 1
