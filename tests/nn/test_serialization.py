"""The one artifact writer and reader: round trips and the format stamp.

Corruption of every artifact kind, and archives in older layouts, are
covered end to end in ``tests/test_artifacts.py``.
"""

import os

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.serialization import (
    FORMAT_KEY,
    CheckpointError,
    read_archive,
    remove_archive,
    section,
    write_archive,
)
from repro.nn.tensor import Tensor


class TwoLayer(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.first = Linear(4, 8, rng=rng)
        self.second = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.second(self.first(x))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        """What is read back is exactly what was written: the stamp the
        writer adds is checked and stripped by the reader."""
        model = TwoLayer(seed=1)
        path = tmp_path / "model.npz"
        write_archive(path, model.state_dict())
        loaded = read_archive(path)
        assert set(loaded) == set(model.state_dict())
        for name, values in model.state_dict().items():
            np.testing.assert_array_equal(loaded[name], values)
        with np.load(path) as raw:
            assert int(raw[FORMAT_KEY]) == 1

    def test_load_into_fresh_model(self, tmp_path):
        source = TwoLayer(seed=1)
        path = tmp_path / "model.npz"
        write_archive(path, source.state_dict())
        target = TwoLayer(seed=99)  # different init
        target.load_state_dict(read_archive(path))
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(source(x).data, target(x).data)

    def test_dotted_names_preserved(self, tmp_path):
        model = TwoLayer()
        path = tmp_path / "model.npz"
        write_archive(path, {f"model/{k}": v for k, v in model.state_dict().items()})
        loaded = section(read_archive(path), "model")
        assert "first.weight" in loaded
        assert "second.bias" in loaded

    def test_loaded_arrays_are_copies(self, tmp_path):
        model = TwoLayer()
        path = tmp_path / "model.npz"
        write_archive(path, model.state_dict())
        a = read_archive(path)
        b = read_archive(path)
        a["first.weight"][:] = 0.0
        assert not np.array_equal(a["first.weight"], b["first.weight"])


def test_writer_returns_the_sidecar_digest(tmp_path):
    path = tmp_path / "a.npz"
    digest = write_archive(path, {"w": np.ones(3)})
    assert (tmp_path / "a.npz.sha256").read_text() == digest + "\n"


@pytest.mark.parametrize("stamp", [2, 0, "1", [1, 1]])
def test_unknown_format_version_is_refused_by_name(tmp_path, stamp):
    path = tmp_path / "future.npz"
    np.savez(path, w=np.ones(2), **{FORMAT_KEY: np.asarray(stamp)})
    with pytest.raises(CheckpointError, match=r"future\.npz: unsupported artifact format"):
        read_archive(path)


def test_section_keeps_nested_names_and_ignores_lookalikes():
    arrays = {"aux/g/a": 1, "aux/b": 2, "auxiliary/c": 3, "aux": 4}
    assert section(arrays, "aux") == {"g/a": 1, "b": 2}


def test_remove_archive_takes_the_sidecar_and_tolerates_absence(tmp_path):
    path = tmp_path / "a.npz"
    write_archive(path, {"w": np.ones(1)})
    remove_archive(path)
    remove_archive(path)
    assert os.listdir(tmp_path) == []
