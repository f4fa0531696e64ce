"""k-means++ seeds a stack of point sets in one pass, bit for bit.

The oracle is the one-set-at-a-time seeding that the stacked pass
replaced (:func:`serial_kmeanspp_init`, kept here verbatim): every set
of a stack must get exactly the seeds it gets alone, from its own
``seed + s`` stream.  That holds only while the stacked squared
distances add each row's terms in ``np.sum``'s order, so the widths
below cross every branch of that order (fewer than 8 terms, 8 to 128,
and the halving above 128).
"""

import importlib

import numpy as np
import pytest

from repro.retrieval import ProductQuantizer
from repro.retrieval.kmeans import kmeans_stack

from tests.retrieval.conftest import make_item_matrix

# ``repro.retrieval.kmeans`` the attribute is the function; this is the module.
kmeans_module = importlib.import_module("repro.retrieval.kmeans")


def serial_kmeanspp_init(points, k, rng):
    """Seeded k-means++ seeding (D^2 sampling) of one point set."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[j] = points[int(rng.integers(n))]
        else:
            draw = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(closest), draw))
            pick = min(pick, n - 1)
            centroids[j] = points[pick]
        distance = np.sum((points - centroids[j]) ** 2, axis=1)
        np.minimum(closest, distance, out=closest)
    return centroids


def assert_each_set_seeded_alone(stack, k, seed):
    rngs = [np.random.default_rng(seed + s) for s in range(len(stack))]
    seeds = kmeans_module._kmeanspp_init(stack, k, rngs)
    assert seeds.shape == (len(stack), k, stack.shape[2])
    for s, points in enumerate(stack):
        alone = serial_kmeanspp_init(points, k, np.random.default_rng(seed + s))
        assert np.array_equal(seeds[s], alone), s


@pytest.mark.parametrize("width", [2, 3, 4, 6, 8, 9, 16, 64, 129, 200])
def test_stacked_seeding_is_each_set_seeded_alone(width):
    stack = np.random.default_rng(width).normal(size=(3, 300, width))
    assert_each_set_seeded_alone(stack, 40, seed=5)


@pytest.mark.parametrize("width", [*range(1, 40), 64, 127, 128, 129, 136, 256, 300])
def test_squared_distances_add_in_numpys_row_order(width):
    rng = np.random.default_rng(width)
    stack = rng.normal(size=(2, 50, width))
    centers = rng.normal(size=(2, width))
    columns = np.ascontiguousarray(stack.transpose(0, 2, 1))
    ours = kmeans_module._squared_distances(columns, centers)
    for s in range(2):
        numpys = np.sum((stack[s] - centers[s]) ** 2, axis=1)
        assert np.array_equal(ours[s], numpys), s


def test_coincident_points_take_the_zero_distance_branch():
    # Set 0 has 3 distinct points, set 1 one point repeated: with k = 8
    # both run out of positive D^2 and fall back to a uniform pick,
    # while set 2 never does.  The branch draws from the same stream.
    rng = np.random.default_rng(0)
    few = rng.normal(size=(3, 4))[rng.integers(3, size=60)]
    same = np.tile(rng.normal(size=(1, 4)), (60, 1))
    stack = np.stack([few, same, rng.normal(size=(60, 4))])
    assert_each_set_seeded_alone(stack, 8, seed=11)


def test_each_set_of_a_stack_is_its_own_kmeans():
    stack = np.random.default_rng(3).normal(size=(4, 200, 6))
    results = kmeans_stack(stack, 16, iters=3, seed=9, sample=150)
    for s, result in enumerate(results):
        [alone] = kmeans_stack(stack[s][None], 16, iters=3, seed=9 + s, sample=150)
        assert np.array_equal(result.centroids, alone.centroids), s
        assert np.array_equal(result.assignments, alone.assignments), s
        assert result.inertia == alone.inertia


def serial_codebooks(matrix, quantizer):
    """Each sub-space seeded alone, then k-means continued from it."""
    n, d = matrix.shape
    sub_width = d // quantizer.m
    books = np.zeros((quantizer.m, ProductQuantizer.CODEBOOK_SIZE, sub_width))
    for sub in range(quantizer.m):
        points = matrix[:, sub * sub_width : (sub + 1) * sub_width]
        rng = np.random.default_rng(quantizer.seed + sub)
        train = points
        if n > quantizer.train_sample:
            train = points[rng.choice(n, size=quantizer.train_sample, replace=False)]
        k = min(ProductQuantizer.CODEBOOK_SIZE, n)
        fitted = kmeans_stack(
            points[None],
            k,
            iters=quantizer.iters,
            seed=quantizer.seed + sub,
            sample=quantizer.train_sample,
            init=[serial_kmeanspp_init(train, k, rng)],
        )[0].centroids
        books[sub, :k] = fitted
        books[sub, k:] = fitted[0]
    return books


# 600 items: full codebooks; 120: k clamped to n; train_sample 300 and
# 200: the subsample path, the second with fewer points than codewords,
# so the seeding runs out of positive D^2.
@pytest.mark.parametrize(
    "num_items, train_sample", [(600, None), (120, None), (600, 300), (600, 200)]
)
def test_pq_fit_is_each_subspace_seeded_alone(monkeypatch, num_items, train_sample):
    if train_sample is not None:
        monkeypatch.setattr(ProductQuantizer, "train_sample", train_sample)
    matrix = make_item_matrix(num_items=num_items)[1:]
    quantizer = ProductQuantizer(m=4, iters=3, seed=5)
    codes = quantizer.fit_encode(matrix)
    assert np.array_equal(quantizer.codebooks, serial_codebooks(matrix, quantizer))
    assert np.array_equal(codes, quantizer.encode(matrix))
