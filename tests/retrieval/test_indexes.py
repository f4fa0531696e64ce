"""Exactness and recall properties of the index implementations.

The anchors (ISSUE 7):

* ``ExactIndex`` matches a brute-force stable full sort bit for bit;
* ``recall@k(ivf_flat, nprobe = nlist) == 1.0`` — probing every cell
  with exact candidate scoring returns exactly the exact index's item
  lists (scores agree to floating-point rounding: candidate scoring
  uses gathered row dots, the dense path one batched matmul, so the
  last ULP can differ);
* quantized indexes with a full-coverage rerank budget return the
  same item lists too (quantization only orders the shortlist);
* a saved + loaded index returns bit-identical results.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.eval.topk import top_k_indices
from repro.nn.serialization import CheckpointError
from repro.retrieval import (
    ExactIndex,
    IndexBuildError,
    IVFIndex,
    load_index,
    make_index,
)

from tests.retrieval.conftest import make_item_matrix

K = 10


def brute_force_top_k(matrix, queries, k, exclude=None):
    scores = np.array(queries @ matrix.T, dtype=np.float64)
    scores[:, 0] = -np.inf
    if exclude is not None:
        for row, ids in enumerate(exclude):
            if ids is not None:
                scores[row, np.asarray(ids, dtype=np.int64)] = -np.inf
    order = np.argsort(-scores, axis=-1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=-1)


def recall_at_k(result_items, truth_items):
    hits = sum(
        len(np.intersect1d(got, want))
        for got, want in zip(result_items, truth_items)
    )
    return hits / truth_items.size


@pytest.fixture(scope="module")
def exclusions(item_matrix):
    rng = np.random.default_rng(3)
    out = []
    for row in range(12):
        if row % 3 == 0:
            out.append(None)
        else:
            out.append(
                np.unique(
                    rng.integers(1, item_matrix.shape[0], size=rng.integers(1, 30))
                )
            )
    return out


class TestExactIndex:
    def test_matches_brute_force_bitwise(self, item_matrix, queries, exclusions):
        index = ExactIndex().build(item_matrix)
        result = index.search(queries, K, exclude=exclusions)
        want_items, want_scores = brute_force_top_k(
            item_matrix, queries, K, exclude=exclusions
        )
        assert np.array_equal(result.items, want_items)
        assert np.array_equal(result.scores, want_scores)
        assert result.stats.candidates_scored == queries.shape[0] * item_matrix.shape[0]

    def test_never_returns_padding_or_excluded(self, item_matrix, queries, exclusions):
        result = ExactIndex().build(item_matrix).search(queries, K, exclude=exclusions)
        assert np.all(result.items != 0)
        for row, ids in enumerate(exclusions):
            if ids is not None:
                assert not np.intersect1d(result.items[row], ids).size

    def test_score_is_float64_full_width(self, item_matrix, queries):
        scores = ExactIndex().build(item_matrix).score(queries)
        assert scores.dtype == np.float64
        assert scores.shape == (queries.shape[0], item_matrix.shape[0])


class TestIVFRecall:
    def test_full_probe_flat_recovers_exact_lists(
        self, item_matrix, queries, exclusions
    ):
        exact = ExactIndex().build(item_matrix).search(queries, K, exclude=exclusions)
        flat = make_index("ivf_flat", nlist=16, nprobe=16).build(item_matrix)
        result = flat.search(queries, K, exclude=exclusions)
        assert np.array_equal(result.items, exact.items)
        assert np.allclose(result.scores, exact.scores, rtol=1e-12, atol=1e-12)
        assert recall_at_k(result.items, exact.items) == 1.0

    @pytest.mark.parametrize("kind", ["ivf", "ivf_pq"])
    def test_full_probe_full_rerank_recovers_exact_lists(
        self, item_matrix, queries, exclusions, kind
    ):
        # With every cell probed and a rerank budget covering every
        # candidate, quantization only shapes the shortlist — which is
        # the whole catalogue — so exact rescoring recovers the exact
        # item lists.
        exact = ExactIndex().build(item_matrix).search(queries, K, exclude=exclusions)
        index = make_index(
            kind, nlist=16, nprobe=16, rerank=item_matrix.shape[0], pq_m=4
        ).build(item_matrix)
        result = index.search(queries, K, exclude=exclusions)
        assert np.array_equal(result.items, exact.items)
        assert np.allclose(result.scores, exact.scores, rtol=1e-12, atol=1e-12)

    def test_recall_monotone_in_nprobe(self, item_matrix, queries):
        exact = ExactIndex().build(item_matrix).search(queries, K)
        index = make_index("ivf_flat", nlist=16).build(item_matrix)
        recalls = []
        for nprobe in (1, 2, 4, 8, 16):
            index.with_params(nprobe=nprobe)
            recalls.append(
                recall_at_k(index.search(queries, K).items, exact.items)
            )
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_partial_probe_recall_is_high_on_clustered_data(
        self, item_matrix, queries
    ):
        exact = ExactIndex().build(item_matrix).search(queries, K)
        index = make_index("ivf_pq", nlist=16, nprobe=6, rerank=80, pq_m=4)
        result = index.build(item_matrix).search(queries, K)
        assert recall_at_k(result.items, exact.items) >= 0.9

    def test_stats_account_probing_work(self, item_matrix, queries):
        index = make_index("ivf", nlist=16, nprobe=4, rerank=50).build(item_matrix)
        stats = index.search(queries, K).stats
        assert stats.clusters_probed == queries.shape[0] * 4
        assert 0 < stats.candidates_scored < queries.shape[0] * item_matrix.shape[0]
        assert 0 < stats.reranked <= queries.shape[0] * 50

    def test_inverted_lists_partition_the_catalogue(self, item_matrix):
        index = make_index("ivf_flat", nlist=12).build(item_matrix)
        ids = np.sort(index._list_ids)
        assert np.array_equal(ids, np.arange(1, item_matrix.shape[0]))

    def test_pq_requires_divisible_dim(self):
        matrix = make_item_matrix(num_items=50, dim=10)
        with pytest.raises(IndexBuildError, match="does not divide"):
            make_index("ivf_pq", pq_m=4).build(matrix)

    def test_exclusions_never_leak_from_candidates(self, item_matrix, queries):
        # Exclude a whole cell's worth of ids; none may surface.
        index = make_index("ivf", nlist=8, nprobe=8).build(item_matrix)
        excluded = np.arange(1, item_matrix.shape[0], 2)
        result = index.search(queries, K, exclude=[excluded] * len(queries))
        finite = result.scores > -np.inf
        assert not np.intersect1d(result.items[finite], excluded).size


class TestDeterminismAndArtifacts:
    @pytest.mark.parametrize("kind", ["exact", "ivf", "ivf_pq", "ivf_flat"])
    def test_save_load_returns_bit_identical_results(
        self, tmp_path, item_matrix, queries, exclusions, kind
    ):
        params = {"pq_m": 4} if kind == "ivf_pq" else {}
        index = make_index(kind, **params).build(item_matrix)
        before = index.search(queries, K, exclude=exclusions)
        path = index.save(tmp_path / f"{kind}.npz")
        restored = load_index(path)
        assert restored.kind == kind
        assert restored.checksum == index.checksum
        after = restored.search(queries, K, exclude=exclusions)
        assert np.array_equal(before.items, after.items)
        assert np.array_equal(before.scores, after.scores)
        assert np.array_equal(
            restored.score(queries), index.score(queries)
        )

    def test_rebuild_is_deterministic(self, item_matrix, queries):
        first = make_index("ivf", nlist=12, nprobe=4).build(item_matrix)
        second = first.rebuild(item_matrix)
        a = first.search(queries, K)
        b = second.search(queries, K)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.scores, b.scores)

    def test_typed_load_rejects_wrong_kind(self, tmp_path, item_matrix):
        path = make_index("ivf", nlist=4).build(item_matrix).save(
            tmp_path / "ivf.npz"
        )
        from repro.retrieval import IndexMismatchError

        with pytest.raises(IndexMismatchError, match="holds a IVFIndex"):
            ExactIndex.load(path)
        assert isinstance(IVFIndex.load(path), IVFIndex)

    def test_corrupt_artifact_fails_loudly(self, tmp_path, item_matrix):
        path = str(tmp_path / "idx.npz")
        ExactIndex().build(item_matrix).save(path)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # flip one payload bit
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_index(path)

    def test_garbage_file_fails_loudly(self, tmp_path):
        path = tmp_path / "nope.npz"
        path.write_bytes(b"definitely not an npz")
        with pytest.raises(CheckpointError, match="nope.npz: unreadable"):
            load_index(path)

    @pytest.mark.parametrize("meta", ["[]", "3", '"x"', '{"params": []}'])
    def test_non_object_metadata_is_refused_by_name(self, tmp_path, item_matrix, meta):
        """Valid JSON that is not an object used to escape as an
        AttributeError (a traceback from ``repro serve``)."""
        path = ExactIndex().build(item_matrix).save(tmp_path / "idx.npz")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["__meta__"] = np.array(meta)
        np.savez(path, **arrays)
        with open(path + ".sha256", "w") as sidecar:  # a sound file
            sidecar.write(hashlib.sha256(open(path, "rb").read()).hexdigest())
        with pytest.raises(CheckpointError, match="idx.npz: corrupt index metadata"):
            load_index(path)

    def test_unbuilt_index_cannot_be_saved(self, tmp_path):
        with pytest.raises(IndexBuildError, match="not built"):
            ExactIndex().save(tmp_path / "x.npz")

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path, item_matrix):
        index = ExactIndex().build(item_matrix)
        index.save(tmp_path / "a.npz")
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_failed_write_keeps_previous_artifact(
        self, tmp_path, item_matrix, monkeypatch
    ):
        path = tmp_path / "a.npz"
        ExactIndex().build(item_matrix).save(path)
        before = path.read_bytes()

        def torn_savez(handle, **arrays):
            handle.write(b"half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            make_index("ivf", nlist=4).build(item_matrix).save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz", "a.npz.sha256"]

    def test_save_is_durable_and_temp_names_are_unique(
        self, tmp_path, item_matrix, monkeypatch
    ):
        """The shared atomic writer: data is fsync'd before the rename
        (archive, then sidecar), and two writers of one path (threads
        share a pid) never share a temp file."""
        events, temp_names = [], []
        real_fsync, real_replace, real_savez = os.fsync, os.replace, np.savez

        def savez(handle, **arrays):
            temp_names.extend(
                p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")
            )
            real_savez(handle, **arrays)

        monkeypatch.setattr(np, "savez", savez)
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst)),
        )
        index = ExactIndex().build(item_matrix)
        index.save(tmp_path / "a.npz")
        index.save(tmp_path / "a.npz")
        assert events == ["fsync", "replace"] * 4
        assert len(set(temp_names)) == 2

    def test_float32_matrix_round_trips(self, tmp_path, queries):
        matrix = make_item_matrix(num_items=120, dtype=np.float32)
        index = make_index("ivf", nlist=8).build(matrix)
        restored = load_index(index.save(tmp_path / "f32.npz"))
        assert restored.matrix.dtype == np.float32
        a = index.search(queries.astype(np.float32), K)
        b = restored.search(queries.astype(np.float32), K)
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.scores, b.scores)
