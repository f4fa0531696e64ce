"""SASRec-BPR: BPR-MF warm-started SASRec."""

import numpy as np
import pytest

from repro.models.bprmf import BPRMFConfig
from repro.models.sasrec import SASRecConfig
from repro.models.sasrec_bpr import SASRecBPR
from repro.models.training import TrainConfig


def small_config():
    return SASRecConfig(
        dim=16, train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0)
    )


class TestSASRecBPR:
    def test_dim_mismatch_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            SASRecBPR(
                tiny_dataset,
                small_config(),
                bpr_config=BPRMFConfig(dim=8),
            )

    def test_pretrain_copies_item_embeddings(self, tiny_dataset):
        model = SASRecBPR(
            tiny_dataset,
            small_config(),
            bpr_config=BPRMFConfig(dim=16, train=TrainConfig(epochs=2, seed=0)),
        )
        bpr = model.pretrain(tiny_dataset)
        vectors = bpr.item_embeddings()
        table = model.encoder.item_embedding.weight.data
        np.testing.assert_array_equal(table[: vectors.shape[0]], vectors)

    def test_fit_runs_pretrain_automatically(self, tiny_dataset):
        model = SASRecBPR(
            tiny_dataset,
            small_config(),
            bpr_config=BPRMFConfig(dim=16, train=TrainConfig(epochs=1, seed=0)),
        )
        assert not model._pretrained
        model.fit(tiny_dataset)
        assert model._pretrained

    def test_fit_does_not_repeat_pretrain(self, tiny_dataset):
        model = SASRecBPR(
            tiny_dataset,
            small_config(),
            bpr_config=BPRMFConfig(dim=16, train=TrainConfig(epochs=1, seed=0)),
        )
        model.pretrain(tiny_dataset)
        snapshot = model.encoder.item_embedding.weight.data.copy()
        # fit must fine-tune from the warm start, not redo BPR.
        model.fit(tiny_dataset)
        # (embeddings changed by fine-tuning — just check fit ran)
        assert model._pretrained
        assert snapshot.shape == model.encoder.item_embedding.weight.data.shape

    def test_name(self, tiny_dataset):
        model = SASRecBPR(tiny_dataset, small_config())
        assert model.name == "SASRec-BPR"

    def test_default_bpr_config_matches_dim(self, tiny_dataset):
        model = SASRecBPR(tiny_dataset, small_config())
        assert model.bpr_config.dim == 16
