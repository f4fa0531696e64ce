"""SASRec: encoder behaviour, loss, training, scoring."""

import numpy as np
import pytest

from repro.data.loaders import NextItemBatch, NextItemBatchLoader, pad_left
from repro.eval.evaluator import evaluate_model
from repro.models.encoder import _GROUP_ROWS, SASRecEncoder
from repro.models.losses import masked_next_item_bce
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig
from repro.nn import functional as F
from repro.nn.layers import Dropout
from repro.nn.tensor import Tensor, no_grad
from tests.conftest import (
    TRIM_TOLERANCES,
    assert_same_step,
    run_t_wide,
    without_dropout,
)


def small_config(**train_overrides):
    train = dict(epochs=2, batch_size=32, max_length=12, seed=0)
    train.update(train_overrides)
    return SASRecConfig(dim=16, train=TrainConfig(**train))


class TestEncoder:
    def make(self, vocab=50, length=10, dim=16):
        return SASRecEncoder(
            vocab, length, dim=dim, rng=np.random.default_rng(0)
        )

    def test_hidden_shape(self):
        """``(B, w, d)``: the trailing ``w`` positions, ``w`` the longest
        history, at least 1."""
        enc = self.make()
        ids = np.zeros((4, 10), dtype=np.int64)
        assert enc(ids).shape == (4, 1, 16)
        ids[1, -6:] = 3
        ids[2, -2:] = 4
        assert enc(ids).shape == (4, 6, 16)
        ids[0, :] = 5
        assert enc(ids).shape == (4, 10, 16)

    def test_wrong_length_rejected(self):
        enc = self.make(length=10)
        with pytest.raises(ValueError):
            enc(np.zeros((2, 8), dtype=np.int64))

    def test_user_representation_is_last_position(self):
        enc = self.make()
        enc.eval()
        ids = np.random.default_rng(1).integers(1, 50, size=(3, 10))
        hidden = enc(ids).data
        rep = enc.user_representation(ids).data
        # float32 BLAS on one row need not round like BLAS on many.
        np.testing.assert_allclose(rep, hidden[:, -1, :], rtol=0, atol=1e-5)

    def test_truncated_normal_init_bounds(self):
        enc = self.make()
        assert np.abs(enc.item_embedding.weight.data).max() <= 0.01
        assert np.abs(enc.position_embedding.weight.data).max() <= 0.01

    def test_causality_no_future_leakage(self):
        """Changing the last item must not change earlier hidden states."""
        enc = self.make()
        enc.eval()
        rng = np.random.default_rng(2)
        ids = rng.integers(1, 50, size=(1, 10))
        base = enc(ids).data.copy()
        ids2 = ids.copy()
        ids2[0, -1] = (ids2[0, -1] % 49) + 1
        out = enc(ids2).data
        np.testing.assert_allclose(out[0, :-1], base[0, :-1], atol=1e-10)

    def test_padding_changes_nothing_for_real_positions(self):
        """The same sequence with different left-padding amounts must
        give the same last-position representation shape-wise sane."""
        enc = self.make()
        enc.eval()
        ids = np.zeros((1, 10), dtype=np.int64)
        ids[0, -3:] = [5, 6, 7]
        rep = enc.user_representation(ids).data
        assert np.isfinite(rep).all()

    def test_position_embedding_matters(self):
        """Same items in a different order → different representation."""
        enc = self.make()
        enc.eval()
        a = np.zeros((1, 10), dtype=np.int64)
        b = np.zeros((1, 10), dtype=np.int64)
        a[0, -3:] = [5, 6, 7]
        b[0, -3:] = [7, 6, 5]
        rep_a = enc.user_representation(a).data
        rep_b = enc.user_representation(b).data
        assert not np.allclose(rep_a, rep_b)


def last_row_batch():
    """Left-padded ids with a short row and a fully padded row."""
    ids = np.random.default_rng(3).integers(1, 50, size=(4, 10))
    ids[1, :7] = 0
    ids[2, :] = 0
    return ids


DTYPE_TOLERANCES = [
    pytest.param(np.float64, 1e-12, id="float64"),
    pytest.param(np.float32, 1e-5, id="float32"),
]


class TestLastRowRepresentation:
    """``user_representation`` computes only the final block's last row;
    the oracle is the full forward's last row, at tolerance (BLAS on
    one row need not round like BLAS on many)."""

    def make(self, causal=True, dtype=np.float64):
        return SASRecEncoder(
            50, 10, dim=16, rng=np.random.default_rng(0), causal=causal
        ).to_dtype(dtype)

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
    @pytest.mark.parametrize("dtype, atol", DTYPE_TOLERANCES)
    def test_matches_full_forward_in_eval(self, causal, dtype, atol):
        enc = self.make(causal, dtype)
        enc.eval()
        ids = last_row_batch()
        rep = enc.user_representation(ids).data
        assert rep.shape == (4, 16) and rep.dtype == dtype
        np.testing.assert_allclose(rep, enc(ids).data[:, -1, :], rtol=0, atol=atol)
        with no_grad():
            fast = enc.user_representation(ids).data
            full = enc(ids).data[:, -1, :]
        np.testing.assert_allclose(fast, full, rtol=0, atol=atol)

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
    @pytest.mark.parametrize("dtype, atol", DTYPE_TOLERANCES)
    def test_matches_full_forward_in_training(self, causal, dtype, atol):
        """Two identically seeded encoders in train mode, dropout off so
        the masks (drawn at each path's own shape) drop nothing: the
        grad-mode last-row path equals the full forward's last row."""
        last, full = (without_dropout(self.make(causal, dtype)) for __ in range(2))
        ids = last_row_batch()
        rep = last.user_representation(ids)
        hidden = full(ids)
        np.testing.assert_allclose(
            rep.data, hidden.data[:, -1, :], rtol=0, atol=atol
        )
        # Gradients agree too (the rows never queried get none).
        rep.sum().backward()
        hidden[:, -1, :].sum().backward()
        for (name, a), b in zip(last.named_parameters(), full.parameters()):
            np.testing.assert_allclose(
                a.grad, b.grad, rtol=0, atol=100 * atol, err_msg=name
            )

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grad_and_no_grad_bodies_agree_bit_for_bit(self, causal, dtype):
        enc = self.make(causal, dtype)
        enc.eval()
        ids = last_row_batch()
        with no_grad():
            fast = enc.user_representation(ids)
        slow = enc.user_representation(ids)
        assert not fast._parents and slow._parents
        np.testing.assert_array_equal(fast.data, slow.data)


class TestKeptShapeDropoutDraws:
    """Every grad-mode dropout site advances the shared generator by one
    ``random`` call of the shape it keeps: ``(B, w, d)`` for the
    embeddings and each block's residual branches, ``(B, h, w, w)`` for
    attention, and ``(B, 1, d)`` / ``(B, h, 1, w)`` on the final block's
    last row — never the ``T``-wide shape."""

    B, W, H, D = 4, 6, 2, 16

    def batch(self):
        ids = last_row_batch()
        ids[:, : 10 - self.W] = 0  # longest history W < T = 10
        return ids

    def draws(self, monkeypatch, call):
        """The shapes ``call`` drew masks at, after checking the shared
        generator moved by exactly those draws and nothing else."""
        enc = SASRecEncoder(50, 10, dim=self.D, rng=np.random.default_rng(0))
        rng = enc.embedding_dropout._rng
        start = rng.bit_generator.state
        shapes = []
        real_mask = F.dropout_mask

        def recording_mask(shape, rate, generator, dtype=np.float64):
            assert generator is rng
            shapes.append(tuple(shape))
            return real_mask(shape, rate, generator, dtype)

        monkeypatch.setattr(F, "dropout_mask", recording_mask)
        call(enc, self.batch())
        replay = np.random.default_rng()
        replay.bit_generator.state = start
        for shape in shapes:
            replay.random(shape)
        assert rng.bit_generator.state == replay.bit_generator.state
        return shapes

    def test_forward(self, monkeypatch):
        b, w, h, d = self.B, self.W, self.H, self.D
        block = [(b, h, w, w), (b, w, d), (b, w, d)]
        draws = self.draws(monkeypatch, SASRecEncoder.__call__)
        assert draws == [(b, w, d)] + 2 * block

    def test_user_representation(self, monkeypatch):
        b, w, h, d = self.B, self.W, self.H, self.D
        assert self.draws(monkeypatch, SASRecEncoder.user_representation) == [
            (b, w, d),
            (b, h, w, w), (b, w, d), (b, w, d),
            (b, h, 1, w), (b, 1, d), (b, 1, d),
        ]

    def test_eval_mode_draws_nothing(self, monkeypatch):
        def evaluate(enc, ids):
            enc.eval()
            enc(ids)
            enc.user_representation(ids)

        assert self.draws(monkeypatch, evaluate) == []


def t_wide_oracle(enc, sequences):
    """``user_representation`` of the histories left-padded to ``T``."""
    batch = np.stack([pad_left(s, enc.max_length) for s in sequences])
    enc.eval()
    with no_grad():
        return enc.user_representation(batch).data


def lengths_over_three_groups():
    """2 × group size + 1 lengths, shuffled, with duplicates, spanning
    empty to longer than T=10."""
    lengths = np.arange(2 * _GROUP_ROWS + 1) % 14
    return np.random.default_rng(4).permutation(lengths)


class TestLengthGroupedEncode:
    """``encode_sequences`` pads each length group only to its longest
    history; the oracle is the T-wide ``user_representation``."""

    def make(self, causal=True, dtype=np.float32):
        return SASRecEncoder(
            50, 10, dim=16, rng=np.random.default_rng(0), causal=causal
        ).to_dtype(dtype)

    def histories(self, lengths, seed=5):
        rng = np.random.default_rng(seed)
        return [rng.integers(1, 50, size=int(n)) for n in lengths]

    def test_empty_list(self):
        for dtype in (np.float32, np.float64):
            out = self.make(dtype=dtype).encode_sequences([])
            assert out.shape == (0, 16) and out.dtype == dtype

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
    @pytest.mark.parametrize("dtype, atol", DTYPE_TOLERANCES)
    @pytest.mark.parametrize(
        "lengths",
        [
            pytest.param([0], id="empty-history"),
            pytest.param([0, 3, 0, 1], id="empty-among-short"),
            pytest.param([17], id="longer-than-T"),
            pytest.param([10], id="exactly-T"),
            pytest.param([4], id="single-row"),
            pytest.param(lengths_over_three_groups(), id="three-groups-shuffled"),
        ],
    )
    def test_matches_t_wide_oracle(self, causal, dtype, atol, lengths):
        enc = self.make(causal, dtype)
        sequences = self.histories(lengths)
        out = enc.encode_sequences(sequences)
        assert out.shape == (len(sequences), 16) and out.dtype == dtype
        np.testing.assert_allclose(
            out, t_wide_oracle(enc, sequences), rtol=0, atol=atol
        )

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_leaves_generators_and_mode_as_found(self, training):
        enc = self.make()
        enc.train(training)
        generators = {
            id(m._rng): m._rng for m in enc.modules() if isinstance(m, Dropout)
        }
        before = [g.bit_generator.state for g in generators.values()]
        enc.encode_sequences(self.histories(lengths_over_three_groups()))
        assert [g.bit_generator.state for g in generators.values()] == before
        assert all(m.training == training for m in enc.modules())


class TestMaskedLoss:
    def test_padding_excluded(self):
        pos = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        neg = Tensor(np.array([[-10.0, 0.0], [0.0, -10.0]]))
        full = masked_next_item_bce(pos, neg, np.ones((2, 2)))
        # Mask out the "0.0" cells — remaining logits are perfect.
        masked = masked_next_item_bce(
            pos, neg, np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        assert masked.item() < full.item()
        assert masked.item() < 1e-3

    def test_all_zero_mask_rejected(self):
        pos = Tensor(np.zeros((2, 2)))
        neg = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            masked_next_item_bce(pos, neg, np.zeros((2, 2)))

    def test_random_logits_near_two_log_two(self):
        rng = np.random.default_rng(0)
        pos = Tensor(rng.normal(size=(8, 8)) * 0.01)
        neg = Tensor(rng.normal(size=(8, 8)) * 0.01)
        loss = masked_next_item_bce(pos, neg, np.ones((8, 8)))
        assert abs(loss.item() - 2 * np.log(2)) < 0.02


class TestSASRecTraining:
    def test_loss_decreases(self, tiny_dataset):
        model = SASRec(tiny_dataset, small_config(epochs=4))
        history = model.fit(tiny_dataset)
        assert history.losses[-1] < history.losses[0]

    def test_score_users_shape(self, tiny_dataset):
        model = SASRec(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:6]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (6, tiny_dataset.num_items + 1)

    def test_beats_chance(self, tiny_dataset):
        model = SASRec(tiny_dataset, small_config(epochs=5))
        model.fit(tiny_dataset)
        result = evaluate_model(model, tiny_dataset)
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_deterministic_training(self, tiny_dataset):
        def run():
            model = SASRec(tiny_dataset, small_config())
            model.fit(tiny_dataset)
            return model.score_items(
                tiny_dataset, tiny_dataset.evaluation_users("test")[:3]
            )

        np.testing.assert_array_equal(run(), run())

    def test_early_stopping_restores_best(self, tiny_dataset):
        model = SASRec(
            tiny_dataset,
            small_config(epochs=6, eval_every=1, patience=1, max_eval_users=100),
        )
        history = model.fit(tiny_dataset)
        assert len(history.valid_scores) >= 1
        # If stopped early, a best epoch must have been recorded.
        if history.stopped_early:
            assert history.best_epoch >= 0

    def test_sequence_loss_uses_negatives(self, tiny_dataset):
        model = SASRec(tiny_dataset, small_config())
        loader = NextItemBatchLoader(
            tiny_dataset, 12, 32, np.random.default_rng(0)
        )
        batch = next(iter(loader.epoch()))
        loss = model.sequence_loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
        assert model.encoder.item_embedding.weight.grad is not None


def next_item_batch(lengths, t=12, num_items=80, seed=6):
    """A left-padded next-item batch of random histories with ``lengths``
    items each (inputs and targets are one shorter)."""
    rng = np.random.default_rng(seed)
    histories = [rng.integers(1, num_items + 1, size=n) for n in lengths]
    inputs = np.stack([pad_left(h[:-1], t) for h in histories])
    targets = np.stack([pad_left(h[1:], t) for h in histories])
    mask = (targets > 0).astype(np.float64)
    negatives = np.where(targets > 0, rng.integers(1, num_items + 1, targets.shape), 0)
    return NextItemBatch(np.arange(len(lengths)), inputs, targets, negatives, mask)


#: History lengths and the trimmed width ``w`` they give at T = 12.
TRIM_CASES = [
    pytest.param([4, 8, 2, 6], 7, id="mixed"),
    pytest.param([5, 20, 3], 12, id="one-full-length-nothing-cut"),
    pytest.param([2, 2, 2], 1, id="one-item-inputs"),
]


class TestTrimmedTraining:
    """The grad-mode forward runs only the batch's trailing ``w`` columns;
    the oracle is the T-wide forward (``run_t_wide``) on an identically
    seeded model, in train mode with dropout off."""

    @pytest.mark.parametrize("lengths, width", TRIM_CASES)
    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_sequence_loss_matches_t_wide_oracle(
        self, tiny_dataset, lengths, width, dtype, loss_tol, grad_tol
    ):
        trimmed, oracle = (
            SASRec(tiny_dataset, small_config()).to_dtype(dtype) for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        batch = next_item_batch(lengths, num_items=tiny_dataset.num_items)
        assert_same_step(
            trimmed, oracle, lambda model: model.sequence_loss(batch), loss_tol, grad_tol
        )
        with no_grad():
            assert trimmed.encoder(batch.inputs).shape == (len(lengths), width, 16)

    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_loader_batch_matches_t_wide_oracle(
        self, tiny_dataset, dtype, loss_tol, grad_tol
    ):
        trimmed, oracle = (
            SASRec(tiny_dataset, small_config(max_length=30)).to_dtype(dtype)
            for __ in range(2)
        )
        run_t_wide(oracle.encoder)
        loader = NextItemBatchLoader(tiny_dataset, 30, 32, np.random.default_rng(0))
        batch = next(iter(loader.epoch()))
        assert (batch.inputs[:, 0] == 0).all()
        assert_same_step(
            trimmed, oracle, lambda model: model.sequence_loss(batch), loss_tol, grad_tol
        )

    def test_right_padded_batch_is_refused(self, tiny_dataset):
        """Trimming a right-padded batch would drop its items and
        targets: a named error instead."""
        model = SASRec(tiny_dataset, small_config())
        batch = next_item_batch([4, 8, 2, 6], num_items=tiny_dataset.num_items)
        right = NextItemBatch(
            batch.users,
            *(
                np.stack([np.roll(row, -int((row == 0).sum())) for row in array])
                for array in (batch.inputs, batch.targets, batch.negatives, batch.mask)
            ),
        )
        assert (right.inputs[:, 0] != 0).all() and (right.inputs[:, -1] == 0).any()
        with pytest.raises(ValueError, match="item_ids is non-zero in column 0"):
            model.sequence_loss(right)

    def test_target_left_of_the_longest_history_is_refused(self, tiny_dataset):
        model = SASRec(tiny_dataset, small_config())
        batch = next_item_batch([4, 8, 2, 6], num_items=tiny_dataset.num_items)
        # w = 7: columns 0..4 are cut
        batch.mask[2, 3] = 1.0
        with pytest.raises(ValueError, match="loss mask is non-zero in column 3"):
            model.sequence_loss(batch)
