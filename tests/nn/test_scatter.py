"""The gather backwards scatter like ``np.add.at``.

``Tensor.take_rows`` (every embedding lookup) and ``Tensor.__getitem__``
with an integer-array key sum repeated rows with a stable sort and
``np.add.reduceat``.  ``np.add.at`` is the oracle: on integer-valued
gradients every summation order is exact, so the two agree bit for bit;
on real data they agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor

ROWS, DIM = 7, 3


def add_at_rows(indices, grad, dtype):
    full = np.zeros((ROWS, DIM), dtype=dtype)
    np.add.at(full, indices.reshape(-1), grad.reshape(-1, DIM))
    return full


def take_rows_grad(indices, grad, dtype):
    table = Tensor(np.zeros((ROWS, DIM), dtype=dtype), requires_grad=True)
    (table.take_rows(indices) * Tensor(grad)).sum().backward()
    return table.grad


INDEX_CASES = [
    pytest.param(np.array([3, 1, 3, 0, 3, 6, 1]), id="repeated"),
    pytest.param(np.full(9, 4), id="one-index-repeated"),
    pytest.param(np.array([[2, 5, 2], [5, 5, 0]]), id="2-d"),
    pytest.param(np.array([6, 0, 2]), id="no-repeats"),
    pytest.param(np.array([], dtype=np.int64), id="empty"),
    pytest.param(np.zeros((0, 4), dtype=np.int64), id="empty-2-d"),
]


def integer_values(shape, dtype, seed=0):
    return np.random.default_rng(seed).integers(-50, 50, size=shape).astype(dtype)


class TestTakeRowsBackward:
    @pytest.mark.parametrize("indices", INDEX_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_gradients_are_exact(self, indices, dtype):
        grad = integer_values((*indices.shape, DIM), dtype)
        got = take_rows_grad(indices, grad, dtype)
        assert got.dtype == dtype and got.shape == (ROWS, DIM)
        np.testing.assert_array_equal(got, add_at_rows(indices, grad, dtype))

    @pytest.mark.parametrize("indices", INDEX_CASES)
    @pytest.mark.parametrize(
        "dtype, rtol, atol",
        [
            pytest.param(np.float64, 0, 1e-12, id="float64"),
            pytest.param(np.float32, 1e-5, 1e-6, id="float32"),
        ],
    )
    def test_real_gradients_agree_to_rounding(self, indices, dtype, rtol, atol):
        grad = np.random.default_rng(1).normal(size=(*indices.shape, DIM)).astype(dtype)
        np.testing.assert_allclose(
            take_rows_grad(indices, grad, dtype),
            add_at_rows(indices, grad, dtype),
            rtol=rtol,
            atol=atol,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        indices=st.lists(st.integers(0, ROWS - 1), max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_property_matches_add_at(self, indices, seed):
        indices = np.asarray(indices, dtype=np.int64)
        for dtype in (np.float32, np.float64):
            grad = integer_values((len(indices), DIM), dtype, seed)
            np.testing.assert_array_equal(
                take_rows_grad(indices, grad, dtype), add_at_rows(indices, grad, dtype)
            )
        grad = np.random.default_rng(seed).normal(size=(len(indices), DIM))
        np.testing.assert_allclose(
            take_rows_grad(indices, grad, np.float64),
            add_at_rows(indices, grad, np.float64),
            rtol=0,
            atol=1e-12,
        )


class TestGetitemBackward:
    """Keys that cannot select an element twice (slices, ints, boolean
    masks) assign the gradient; integer-array keys scatter it, by rows
    when they index the leading axes, else element by element."""

    KEYS = [
        pytest.param(np.s_[2:5], id="slice"),
        pytest.param(np.s_[:, -1], id="int-and-slice"),
        pytest.param(np.s_[1, ...], id="ellipsis"),
        pytest.param(np.arange(ROWS * DIM).reshape(ROWS, DIM) % 3 == 0, id="bool-mask"),
        pytest.param(np.s_[[4, 1, 4, 4]], id="int-array"),
        pytest.param(np.s_[[0, 6, 0], [2, 2, 2]], id="int-array-pair"),
        pytest.param(np.s_[[4, 1, 4], :], id="int-array-then-slice"),
        pytest.param(np.s_[[-1, 0, -1], [2, -3, 2]], id="negative-ints"),
        pytest.param(np.s_[3, [0, 0, 2]], id="int-then-int-array"),
        pytest.param(np.s_[:, [1, 1, 0]], id="slice-then-int-array"),
        pytest.param(np.s_[np.array([], dtype=np.int64)], id="empty-int-array"),
    ]

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_add_at(self, key, dtype):
        source = Tensor(np.zeros((ROWS, DIM), dtype=dtype), requires_grad=True)
        out = source[key]
        grad = integer_values(out.shape, dtype)
        (out * Tensor(grad)).sum().backward()
        expected = np.zeros((ROWS, DIM), dtype=dtype)
        np.add.at(expected, key, grad)
        assert source.grad.dtype == dtype
        np.testing.assert_array_equal(source.grad, expected)
