"""Shared-memory array bundles (repro.core.shm)."""

import numpy as np
import pytest

from repro.core.shm import SharedArrays, adopt_parameters
from repro.nn.module import Module, Parameter


class TinyModule(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.arange(6.0).reshape(2, 3))
        self.bias = Parameter(np.zeros(3))


class TestSharedArrays:
    def test_create_attach_round_trip(self):
        arrays = {
            "a": np.arange(12.0).reshape(3, 4),
            "b": np.arange(5, dtype=np.int64),
            "c": np.float32([[1.5, -2.5]]),
        }
        shared = SharedArrays.create(arrays)
        try:
            attached = SharedArrays.attach(shared.meta())
            try:
                assert set(attached.views) == set(arrays)
                for name, array in arrays.items():
                    np.testing.assert_array_equal(attached.views[name], array)
                    assert attached.views[name].dtype == array.dtype
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_views_are_64_byte_aligned(self):
        shared = SharedArrays.create(
            {"a": np.ones(3), "b": np.ones(7), "c": np.ones(1)}
        )
        try:
            for name, (offset, __, ___) in shared.entries.items():
                assert offset % 64 == 0, name
        finally:
            shared.close()
            shared.unlink()

    def test_attached_views_read_only_by_default(self):
        shared = SharedArrays.create({"a": np.zeros(4)})
        try:
            attached = SharedArrays.attach(shared.meta())
            try:
                with pytest.raises((ValueError, RuntimeError)):
                    attached.views["a"][0] = 1.0
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_writeable_attachment_is_visible_to_other_mappings(self):
        shared = SharedArrays.create({"a": np.zeros(4)})
        try:
            producer = SharedArrays.attach(shared.meta(), writeable=True)
            try:
                producer.views["a"][...] = [1.0, 2.0, 3.0, 4.0]
                np.testing.assert_array_equal(
                    shared.views["a"], [1.0, 2.0, 3.0, 4.0]
                )
            finally:
                producer.close()
        finally:
            shared.close()
            shared.unlink()

    def test_payload_bytes_excludes_padding(self):
        arrays = {"a": np.zeros(3), "b": np.zeros((2, 2), dtype=np.float32)}
        shared = SharedArrays.create(arrays)
        try:
            expected = sum(a.nbytes for a in arrays.values())
            assert shared.payload_bytes == expected
        finally:
            shared.close()
            shared.unlink()

    def test_unlink_is_idempotent(self):
        shared = SharedArrays.create({"a": np.zeros(2)})
        shared.close()
        shared.unlink()
        shared.unlink()  # second call must not raise

    def test_meta_is_plain_data(self):
        import pickle

        shared = SharedArrays.create({"a": np.zeros(2)})
        try:
            meta = shared.meta()
            restored = pickle.loads(pickle.dumps(meta))
            assert restored["name"] == shared.shm.name
        finally:
            shared.close()
            shared.unlink()


class TestAdoptParameters:
    def _shared_for(self, model):
        return SharedArrays.create(
            {name: np.asarray(p.data) for name, p in model.named_parameters()}
        )

    def test_adoption_is_zero_copy(self):
        model = TinyModule()
        shared = self._shared_for(model)
        try:
            adopt_parameters(model, shared.views)
            for name, param in model.named_parameters():
                assert param.data is shared.views[name]
        finally:
            shared.close()
            shared.unlink()

    def test_missing_parameter_raises(self):
        model = TinyModule()
        shared = SharedArrays.create({"weight": np.zeros((2, 3), dtype=np.float32)})
        try:
            with pytest.raises(KeyError, match="bias"):
                adopt_parameters(model, shared.views)
        finally:
            shared.close()
            shared.unlink()

    def test_shape_mismatch_raises(self):
        model = TinyModule()
        shared = SharedArrays.create(
            {"weight": np.zeros((3, 2), dtype=np.float32),
             "bias": np.zeros(3, dtype=np.float32)}
        )
        try:
            with pytest.raises(ValueError, match="weight"):
                adopt_parameters(model, shared.views)
        finally:
            shared.close()
            shared.unlink()

    def test_dtype_mismatch_raises(self):
        model = TinyModule()
        shared = SharedArrays.create(
            {"weight": np.zeros((2, 3)), "bias": np.zeros(3, dtype=np.float32)}
        )
        try:
            with pytest.raises(ValueError, match="weight"):
                adopt_parameters(model, shared.views)
        finally:
            shared.close()
            shared.unlink()
