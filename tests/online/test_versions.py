"""ModelVersionStore: checksummed archives, manifest, swap compatibility."""

import json
import os

import numpy as np
import pytest

from repro.nn.serialization import CheckpointError, read_archive
from repro.online import ModelVersionStore
from repro.serve.engine import RecommendationEngine

from .conftest import SCALE


def _state(seed=0):
    rng = np.random.default_rng(seed)
    return {"encoder.w": rng.normal(size=(4, 3)), "bias": rng.normal(size=3)}


def test_publish_roundtrip(tmp_path):
    store = ModelVersionStore(tmp_path)
    state = _state()
    record = store.publish(state, round_index=0)
    assert record.version == 1
    assert record.decision == "pending"
    loaded = store.load_state(record.version)
    for name, values in state.items():
        np.testing.assert_array_equal(loaded[name], values)
    # Checksummed: archive + sidecar on disk, sha recorded.
    path = store.path(record.version)
    assert os.path.exists(path)
    assert os.path.exists(path + ".sha256")
    assert len(record.checksum) == 64


def test_archive_uses_model_prefix(tmp_path):
    store = ModelVersionStore(tmp_path)
    record = store.publish(_state())
    payload = read_archive(store.path(record.version))
    assert any(name.startswith("model/") for name in payload)
    assert int(payload["meta/version"]) == record.version


def test_corrupt_archive_refused(tmp_path):
    store = ModelVersionStore(tmp_path)
    record = store.publish(_state())
    path = store.path(record.version)
    with open(path, "r+b") as handle:
        handle.seek(30)
        handle.write(b"\xff\xff\xff\xff")
    with pytest.raises(CheckpointError):
        store.load_state(record.version)


def test_mark_and_latest_serving(tmp_path):
    store = ModelVersionStore(tmp_path)
    base = store.publish(_state(0), decision="baseline")
    cand = store.publish(_state(1), round_index=0)
    assert store.latest_serving().version == base.version
    store.mark(cand.version, "refused", reason="metric_regression:HR@10")
    assert store.latest_serving().version == base.version
    cand2 = store.publish(_state(2), round_index=1)
    store.mark(cand2.version, "promoted")
    assert store.latest_serving().version == cand2.version
    assert store.record(cand.version).reason == "metric_regression:HR@10"


def test_manifest_survives_reopen(tmp_path):
    store = ModelVersionStore(tmp_path)
    store.publish(_state(0), decision="baseline")
    record = store.publish(_state(1), round_index=3)
    store.mark(record.version, "promoted")
    reopened = ModelVersionStore(tmp_path)
    assert [r.version for r in reopened.records] == [1, 2]
    assert reopened.latest_serving().version == 2
    assert reopened.record(2).round == 3


def test_prune_keeps_manifest_and_serving_archive(tmp_path):
    store = ModelVersionStore(tmp_path, keep=2)
    promoted = store.publish(_state(0), decision="baseline")
    for i in range(1, 6):
        store.publish(_state(i), round_index=i)
    # All six records survive in the manifest; only the last two files
    # plus the serving baseline remain archived.
    assert len(store.records) == 6
    archived = [r.version for r in store.records if r.archived]
    assert promoted.version in archived
    assert len(archived) == 3
    with pytest.raises(FileNotFoundError):
        store.load_state(2)
    manifest = json.load(open(os.path.join(store.directory, "versions.json")))
    assert len(manifest["versions"]) == 6


def test_version_archives_are_swap_compatible(tmp_path, tiny_dataset, tiny_model):
    """swap_model consumes a store archive directly — no conversion."""
    store = ModelVersionStore(tmp_path)
    engine = RecommendationEngine(tiny_model, tiny_dataset, resilience=None)
    state = {
        name: values + 0.01 if np.issubdtype(values.dtype, np.floating) else values
        for name, values in tiny_model.state_dict().items()
    }
    record = store.publish(state)
    before = engine.model_version
    info = engine.swap_model(store.path(record.version))
    assert info["model_version"] == before + 1
    engine.close()
