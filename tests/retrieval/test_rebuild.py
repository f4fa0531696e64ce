"""``IVFIndex.rebuild`` continues the quantizer it replaces (ISSUE 21).

What a rebuild is, pinned from outside:

* the coarse cells are re-fit cold, exactly as ``build`` fits them;
* the PQ codebooks take **one** Lloyd step from the live ones — on the
  same matrix that is, bit for bit, the cold build with one more
  iteration (the differential oracle);
* ``ivf`` (int8) and ``ivf_flat`` have nothing to continue: their
  rebuild is the cold build;
* live codebooks that do not fit the new matrix mean a cold build,
  decided from shapes, and a wrong-shaped ``init`` further down is an
  error rather than a second, silent, cold path.
"""

import importlib

import numpy as np
import pytest

from repro.retrieval import ExactIndex, ProductQuantizer, kmeans, make_index
from repro.retrieval.kmeans import kmeans_stack

from tests.retrieval.conftest import make_item_matrix
from tests.retrieval.test_indexes import K, recall_at_k

# ``repro.retrieval.kmeans`` the attribute is the function; this is the module.
kmeans_module = importlib.import_module("repro.retrieval.kmeans")

PQ = {"pq_m": 4, "nprobe": 8, "rerank": 100}


def assert_same_arrays(a, b, names):
    left, right = a._artifact_arrays(), b._artifact_arrays()
    for name in names:
        assert np.array_equal(left[name], right[name]), name


CELLS = ("centroids", "list_ids", "list_offsets")
CODEBOOKS = ("pq_codebooks", "codes")


class TestOneMoreStepOracle:
    # 600 items: full 256-entry codebooks; 120: kmeans clamps k to n and
    # the codebook rows past n are padding the continued fit must skip.
    @pytest.mark.parametrize("num_items", [600, 120])
    def test_rebuild_is_cells_of_n_and_codebooks_of_n_plus_one(self, num_items):
        matrix = make_item_matrix(num_items=num_items)
        live = make_index("ivf_pq", kmeans_iters=3, **PQ).build(matrix)
        before = {n: a.copy() for n, a in live._artifact_arrays().items()}
        rebuilt = live.rebuild(matrix)
        assert rebuilt is not live
        # The index still serving did not move under the continued fit.
        after = live._artifact_arrays()
        assert all(np.array_equal(before[n], after[n]) for n in before)
        assert_same_arrays(rebuilt, live, CELLS)
        one_more = make_index("ivf_pq", kmeans_iters=4, **PQ).build(matrix)
        assert_same_arrays(rebuilt, one_more, CODEBOOKS)
        # kmeans_iters stays the cold-build budget of the new index.
        assert rebuilt.kmeans_iters == 3

    def test_quantizer_alone_with_a_subsample(self, monkeypatch):
        monkeypatch.setattr(ProductQuantizer, "train_sample", 300)
        matrix = make_item_matrix(num_items=600)[1:]
        config = {"m": 4, "seed": 5}
        live = ProductQuantizer(iters=3, **config).fit(matrix)
        continued = ProductQuantizer(iters=3, **config).fit(
            matrix, init=live.codebooks
        )
        one_more = ProductQuantizer(iters=4, **config).fit(matrix)
        assert np.array_equal(continued.codebooks, one_more.codebooks)
        assert np.array_equal(continued.encode(matrix), one_more.encode(matrix))

    def test_rebuild_seeds_only_the_coarse_quantizer(self, monkeypatch):
        matrix = make_item_matrix(num_items=600)
        seeded = []  # one k per point set that k-means++ seeds
        seeding = kmeans_module._kmeanspp_init

        def counting(stack, k, rngs):
            seeded.extend([k] * len(stack))
            return seeding(stack, k, rngs)

        monkeypatch.setattr(kmeans_module, "_kmeanspp_init", counting)
        live = make_index("ivf_pq", kmeans_iters=2, **PQ).build(matrix)
        codebooks = [ProductQuantizer.CODEBOOK_SIZE] * PQ["pq_m"]
        assert seeded == [live.nlist_built] + codebooks
        del seeded[:]
        live.rebuild(matrix + 0.01)
        assert seeded == [live.nlist_built]


class TestNothingToContinue:
    @pytest.mark.parametrize("kind", ["ivf", "ivf_flat"])
    def test_rebuild_is_the_cold_build(self, kind):
        matrix = make_item_matrix(num_items=300)
        moved = make_item_matrix(num_items=300, seed=8)
        rebuilt = make_index(kind, nlist=12).build(matrix).rebuild(moved)
        cold = make_index(kind, nlist=12).build(moved)
        assert_same_arrays(rebuilt, cold, cold._artifact_arrays())

    def test_unbuilt_index_rebuilds_cold(self):
        matrix = make_item_matrix(num_items=300)
        rebuilt = make_index("ivf_pq", **PQ).rebuild(matrix)
        cold = make_index("ivf_pq", **PQ).build(matrix)
        assert_same_arrays(rebuilt, cold, CELLS + CODEBOOKS)

    def test_codebooks_of_another_width_rebuild_cold(self):
        live = make_index("ivf_pq", **PQ).build(make_item_matrix(dim=16))
        wider = make_item_matrix(dim=24)
        cold = make_index("ivf_pq", **PQ).build(wider)
        assert_same_arrays(live.rebuild(wider), cold, CELLS + CODEBOOKS)
        # Same width, other sub-space count: still shapes, still cold.
        live.pq_m = 8
        matrix = make_item_matrix(dim=16)
        cold = make_index("ivf_pq", **{**PQ, "pq_m": 8}).build(matrix)
        assert_same_arrays(live.rebuild(matrix), cold, CELLS + CODEBOOKS)

    def test_wrong_shaped_init_is_an_error_not_a_cold_start(self):
        points = make_item_matrix(num_items=50)[1:]
        good = kmeans(points, 5, iters=1, seed=0).centroids
        [continued] = kmeans_stack(points[None], 5, iters=1, seed=0, init=[good])
        assert continued.centroids.shape == (5, 16)
        for bad in (good[:4], good[:, :8], good.ravel()):
            with pytest.raises(ValueError, match="init must be"):
                kmeans_stack(points[None], 5, iters=1, seed=0, init=[bad])
        with pytest.raises(ValueError, match="init codebooks must be"):
            ProductQuantizer(m=4).fit(points, init=np.zeros((2, 256, 8)))


def test_ten_drifting_rebuilds_track_the_cold_rebuild():
    """A clustered catalogue moved by seeded noise, ten swaps in a row:
    the continued index answers like a cold one built on the same
    matrix, and its codebooks do not age past 1.25x the cold error."""
    rng = np.random.default_rng(3)
    matrix = make_item_matrix(num_items=1200)
    # rerank=60 of ~270 probed candidates: a budget the codebooks'
    # quality can still show through (at 100 both sides read 1.000).
    params = {**PQ, "rerank": 60, "kmeans_iters": 5}
    continued = make_index("ivf_pq", **params).build(matrix)
    for step in range(10):
        matrix = matrix + rng.normal(scale=0.15, size=matrix.shape)
        matrix[0] = 0.0
        continued = continued.rebuild(matrix)
        cold = make_index("ivf_pq", **params).build(matrix)
        queries = matrix[rng.integers(1, len(matrix), size=48)]
        truth = ExactIndex().build(matrix).search(queries, K).items
        ours = recall_at_k(continued.search(queries, K).items, truth)
        assert ours >= 0.95, step
        theirs = recall_at_k(cold.search(queries, K).items, truth)
        assert abs(ours - theirs) <= 0.01, step
        error = continued.stats()["pq_relative_error"]
        assert error <= 1.25 * cold.stats()["pq_relative_error"], step


def test_pq_relative_error_is_measured_once_and_round_trips(tmp_path):
    matrix = make_item_matrix(num_items=300)
    index = make_index("ivf_pq", **PQ).build(matrix)
    items = matrix[1:]
    residual = items - index._quantizer.decode(index._codes[1:])
    expected = (residual ** 2).sum() / (items ** 2).sum()
    reported = index.stats()["pq_relative_error"]
    assert 0.0 < reported < 1.0
    assert reported == pytest.approx(expected, rel=1e-12)
    restored = type(index).load(index.save(tmp_path / "pq.npz"))
    assert restored.stats()["pq_relative_error"] == reported
    assert "pq_relative_error" not in make_index("ivf").build(matrix).stats()
