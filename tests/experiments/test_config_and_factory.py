"""Scale presets and the model factory."""

import pytest

from repro.core.cl4srec import CL4SRec
from repro.experiments.config import BENCH_SCALE, FULL_SCALE, SMOKE_SCALE, ExperimentScale
from repro.models.bert4rec import BERT4Rec
from repro.models.bprmf import BPRMF
from repro.models.caser import Caser
from repro.models.gru4rec import GRU4Rec
from repro.models.ncf import NCF
from repro.models.pop import Pop
from repro.models.registry import EXTENSION_MODEL_NAMES, MODEL_NAMES, build_model
from repro.models.sasrec import SASRec
from repro.models.sasrec_bpr import SASRecBPR


class TestExperimentScale:
    def test_presets_ordered(self):
        assert SMOKE_SCALE.dataset_scale < BENCH_SCALE.dataset_scale
        assert BENCH_SCALE.dataset_scale < FULL_SCALE.dataset_scale

    def test_full_scale_matches_paper(self):
        assert FULL_SCALE.dim == 128
        assert FULL_SCALE.max_length == 50
        assert FULL_SCALE.batch_size == 256

    def test_with_overrides(self):
        scaled = SMOKE_SCALE.with_overrides(epochs=99)
        assert scaled.epochs == 99
        assert scaled.dim == SMOKE_SCALE.dim
        assert SMOKE_SCALE.epochs != 99  # frozen original untouched


class TestFactory:
    def test_all_names_buildable(self, tiny_dataset):
        expected = {
            "Pop": Pop,
            "BPR-MF": BPRMF,
            "NCF": NCF,
            "GRU4Rec": GRU4Rec,
            "SASRec": SASRec,
            "SASRec-BPR": SASRecBPR,
            "CL4SRec": CL4SRec,
        }
        assert set(MODEL_NAMES) == set(expected)
        for name, cls in expected.items():
            model = build_model(name, tiny_dataset, SMOKE_SCALE)
            assert isinstance(model, cls), name

    def test_extension_names_buildable(self, tiny_dataset):
        assert set(EXTENSION_MODEL_NAMES) == {
            "FPMC",
            "Caser",
            "BERT4Rec",
            "MoCo-CL4SRec",
        }
        assert isinstance(build_model("Caser", tiny_dataset, SMOKE_SCALE), Caser)
        assert isinstance(
            build_model("BERT4Rec", tiny_dataset, SMOKE_SCALE), BERT4Rec
        )

    def test_unknown_name(self, tiny_dataset):
        with pytest.raises(ValueError):
            build_model("DreamRec", tiny_dataset, SMOKE_SCALE)

    def test_cl4srec_kwargs_threaded(self, tiny_dataset):
        model = build_model(
            "CL4SRec",
            tiny_dataset,
            SMOKE_SCALE,
            augmentations=("reorder",),
            rates=0.7,
            temperature=0.5,
            mode="joint",
        )
        assert model.cl_config.mode == "joint"
        assert model.cl_config.temperature == 0.5
        assert type(model.operators[0]).__name__ == "Reorder"
        assert model.operators[0].beta == 0.7

    def test_scale_threaded_into_models(self, tiny_dataset):
        scale = SMOKE_SCALE.with_overrides(dim=24)
        model = build_model("SASRec", tiny_dataset, scale)
        assert model.config.dim == 24
        assert model.config.train.epochs == scale.epochs
