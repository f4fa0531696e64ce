"""Every artifact kind, through the one artifact layer.

* Damage — a truncated file, a flipped byte, a stale sidecar or an
  unknown ``meta/format_version`` — is refused by every kind's reader
  with a :class:`CheckpointError` naming the path.
* Archives in the layouts written before the layer existed (no sidecar,
  no stamp, a ``meta/version`` counter, a version-1 index with its
  version inside ``__meta__``) still load.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.nn.checkpoint import save_checkpoint
from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.nn.serialization import FORMAT_KEY, FORMAT_VERSION, CheckpointError
from repro.online import ModelVersionStore
from repro.retrieval import ExactIndex, load_index, make_index
from repro.runtime import CheckpointManager, FaultInjector, TrainingRuntime
from repro.serve.engine import RecommendationEngine

from tests.retrieval.conftest import make_item_matrix

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def sasrec(tiny_dataset):
    return build_model("SASRec", tiny_dataset, SCALE)


def model_sections(model):
    return {f"model/{name}": values for name, values in model.state_dict().items()}


def write_sidecar(path):
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    with open(f"{path}.sha256", "w") as handle:
        handle.write(digest + "\n")


def rewrite(path, change):
    """Replace ``path``'s arrays with ``change(arrays)`` via ``np.savez``."""
    with np.load(path) as archive:
        arrays = change({name: archive[name] for name in archive.files})
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


# ----------------------------------------------------------------------
# Each kind: write one, return (path, its reader)
# ----------------------------------------------------------------------
def training_checkpoint(tmp_path, model, dataset):
    manager = CheckpointManager(tmp_path / "ckpts")
    path = manager.save(1, {**model_sections(model), "meta/next_epoch": np.asarray(1)})
    return path, lambda: manager.load(1)


def served_checkpoint(tmp_path, model, dataset):
    path = str(tmp_path / "served.npz")
    save_checkpoint(path, model)
    return path, lambda: RecommendationEngine.from_checkpoint(path, model, dataset)


def model_version(tmp_path, model, dataset):
    store = ModelVersionStore(tmp_path / "versions")
    record = store.publish(model.state_dict(), round_index=0)
    return store.path(record.version), lambda: store.load_state(record.version)


def index_artifact(tmp_path, model, dataset):
    path = ExactIndex().build(make_item_matrix(num_items=60)).save(tmp_path / "items.idx.npz")
    return path, lambda: load_index(path)


KINDS = {
    "training": training_checkpoint,
    "served": served_checkpoint,
    "version": model_version,
    "index": index_artifact,
}


# ----------------------------------------------------------------------
# Damage
# ----------------------------------------------------------------------
def truncated(path):
    FaultInjector.corrupt_file(path)


def flipped_byte(path):
    with open(path, "rb") as handle:
        size = len(handle.read())
    FaultInjector.corrupt_file(path, flip_byte_at=size // 2)


def stale_sidecar(path):
    with open(f"{path}.sha256", "w") as handle:
        handle.write(hashlib.sha256(b"the archive this one replaced").hexdigest() + "\n")


def unknown_version(path):
    rewrite(path, lambda arrays: {**arrays, FORMAT_KEY: np.asarray(FORMAT_VERSION + 1)})
    write_sidecar(path)  # a sound file: only the stamp refuses it


DAMAGE = {
    "truncated": (truncated, "checksum mismatch"),
    "flipped_byte": (flipped_byte, "checksum mismatch"),
    "stale_sidecar": (stale_sidecar, "checksum mismatch"),
    "unknown_version": (unknown_version, "unsupported artifact format version 2"),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_artifact_is_refused_naming_its_path(
    tmp_path, sasrec, tiny_dataset, kind, damage
):
    path, read = KINDS[kind](tmp_path, sasrec, tiny_dataset)
    read()  # sound before the damage
    harm, reason = DAMAGE[damage]
    harm(path)
    with pytest.raises(CheckpointError, match=re.escape(str(path))) as excinfo:
        read()
    assert reason in str(excinfo.value)


# ----------------------------------------------------------------------
# Older layouts, written here with plain np.savez
# ----------------------------------------------------------------------
def assert_serves_weights_of(engine, model):
    for name, values in model.state_dict().items():
        np.testing.assert_array_equal(engine.model.state_dict()[name], values, err_msg=name)


def test_sidecar_less_save_checkpoint_file_loads(tmp_path, sasrec, tiny_dataset):
    path = tmp_path / "old.npz"
    np.savez(path, **model_sections(sasrec))
    fresh = build_model("SASRec", tiny_dataset, SCALE)
    assert_serves_weights_of(
        RecommendationEngine.from_checkpoint(path, fresh, tiny_dataset), sasrec
    )


def test_bare_state_dict_loads(tmp_path, sasrec, tiny_dataset):
    path = tmp_path / "bare.npz"
    np.savez(path, **sasrec.state_dict())
    fresh = build_model("SASRec", tiny_dataset, SCALE)
    assert_serves_weights_of(
        RecommendationEngine.from_checkpoint(path, fresh, tiny_dataset), sasrec
    )


def test_version_one_index_artifact_loads(tmp_path):
    """The layout ``save_index`` wrote with the version inside ``__meta__``."""
    matrix = make_item_matrix(num_items=120)
    index = make_index("ivf", nlist=6, nprobe=6).build(matrix)
    meta = {
        "format_version": 1,
        "kind": index.kind,
        "params": index._artifact_params(),
        "checksum": index.checksum,
        "num_rows": index.num_rows,
        "dim": index.dim,
        "dtype": str(index.matrix.dtype),
    }
    path = tmp_path / "v1.idx.npz"
    np.savez(
        path,
        __meta__=np.array(json.dumps(meta, sort_keys=True)),
        matrix=index.matrix,
        **index._artifact_arrays(),
    )
    restored = load_index(path)
    queries = np.random.default_rng(3).normal(size=(5, matrix.shape[1]))
    before, after = index.search(queries, 10), restored.search(queries, 10)
    np.testing.assert_array_equal(before.items, after.items)
    np.testing.assert_array_equal(before.scores, after.scores)


def test_resume_checkpoint_with_meta_version_resumes(tmp_path):
    """The runtime's archives carried ``meta/version`` and no stamp."""
    net = Linear(4, 3, rng=np.random.default_rng(0))
    runtime = TrainingRuntime(CheckpointManager(tmp_path), handle_signals=False)
    runtime.start(net, Adam(net.parameters(), lr=0.1), history={"loss": [0.5]})
    runtime.end_epoch(0)
    (path,) = tmp_path.glob("ckpt-*.npz")

    def old_layout(arrays):
        arrays.pop(FORMAT_KEY)
        return {**arrays, "meta/version": np.asarray(1)}

    rewrite(path, old_layout)
    write_sidecar(path)

    resumed = Linear(4, 3, rng=np.random.default_rng(1))
    history = {"loss": []}
    start = TrainingRuntime(CheckpointManager(tmp_path), handle_signals=False).start(
        resumed, Adam(resumed.parameters(), lr=0.1), history=history
    )
    assert start == 1
    assert history == {"loss": [0.5]}
    for name, values in net.state_dict().items():
        np.testing.assert_array_equal(resumed.state_dict()[name], values)
