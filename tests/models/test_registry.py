"""The unified model registry (repro.models.registry)."""

import numpy as np
import pytest

import repro
from repro.experiments.config import ExperimentScale
from repro.models import registry
from repro.models.registry import available_models, build_model, register_model
from repro.models.sasrec import SASRec


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


class TestRegistryContents:
    def test_all_table2_methods_registered(self):
        names = available_models()
        for name in registry.MODEL_NAMES:
            assert name in names

    def test_extensions_registered(self):
        names = available_models()
        for name in registry.EXTENSION_MODEL_NAMES:
            assert name in names

    def test_paper_methods_listed_first(self):
        names = available_models()
        assert names[: len(registry.MODEL_NAMES)] == registry.MODEL_NAMES

    @pytest.mark.parametrize("name", registry.MODEL_NAMES)
    def test_builds_every_paper_method(self, name, tiny_dataset, scale):
        model = build_model(name, tiny_dataset, scale)
        assert hasattr(model, "fit")

    def test_sasrec_type(self, tiny_dataset, scale):
        assert isinstance(build_model("SASRec", tiny_dataset, scale), SASRec)

    def test_cl4srec_forwards_kwargs(self, tiny_dataset, scale):
        model = build_model(
            "CL4SRec", tiny_dataset, scale, augmentations=("mask",), mode="joint"
        )
        assert model.cl_config.augmentations == ("mask",)
        assert model.cl_config.mode == "joint"

    def test_unknown_name_lists_alternatives(self, tiny_dataset, scale):
        with pytest.raises(ValueError, match="unknown model 'Nope'"):
            build_model("Nope", tiny_dataset, scale)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model("SASRec")(lambda dataset, scale, **kw: None)

    def test_custom_registration(self, tiny_dataset, scale):
        sentinel = object()
        register_model("_test-model")(lambda dataset, s, **kw: sentinel)
        try:
            assert build_model("_test-model", tiny_dataset, scale) is sentinel
            assert "_test-model" in available_models()
        finally:
            del registry._REGISTRY["_test-model"]


class TestOnePrecision:
    @pytest.mark.parametrize("name", available_models())
    def test_parameters_are_float32(self, name, tiny_dataset, scale):
        model = build_model(name, tiny_dataset, scale)
        if name == "Pop":
            return  # no parameters at all
        # Every parameter, the weights a layer replaces after construction
        # (the packed qkv_proj, the truncated-normal embeddings) included.
        dtypes = {n: p.data.dtype for n, p in model.named_parameters()}
        assert dtypes and set(dtypes.values()) == {np.dtype(np.float32)}, dtypes


class TestCompatReexports:
    def test_top_level_exports(self):
        assert repro.build_model is build_model
        assert repro.available_models is available_models
        assert repro.register_model is register_model
