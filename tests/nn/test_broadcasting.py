"""Property-based broadcasting coverage for the autograd engine.

Hypothesis generates random compatible shape pairs and verifies that
gradients always match central differences — the broadcast/unbroadcast
logic is the most shape-sensitive part of the engine.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor
from tests.conftest import numeric_gradient


@st.composite
def broadcastable_pair(draw):
    """Two shapes that numpy can broadcast together."""
    ndim = draw(st.integers(1, 3))
    full = [draw(st.integers(1, 4)) for __ in range(ndim)]
    # Shape A: possibly collapse some axes to 1; possibly drop leading axes.
    a = [size if draw(st.booleans()) else 1 for size in full]
    b = [size if draw(st.booleans()) else 1 for size in full]
    a_skip = draw(st.integers(0, ndim - 1))
    b_skip = draw(st.integers(0, ndim - 1))
    # At least one operand keeps the full rank so the output shape is `full`-ish.
    if a_skip and b_skip:
        a_skip = 0
    # Ensure every axis keeps its full extent in at least one operand.
    for i in range(ndim):
        if a[i] == 1 and b[i] == 1:
            a[i] = full[i]
    return tuple(a[a_skip:]), tuple(b[b_skip:])


def check_binary(op, shape_a, shape_b, seed):
    rng = np.random.default_rng(seed)
    a_arr = rng.normal(size=shape_a)
    # Mostly positive denominators, but N(0, 1) + 2.5 still lands near 0
    # now and then: a / b's central difference is then off by a relative
    # (eps / b)**2 (1.1e-7 at b = 0.003), which the relative tolerance
    # below absorbs down to |b| = 1e-4.
    b_arr = rng.normal(size=shape_b) + 2.5
    a = Tensor(a_arr, requires_grad=True)
    b = Tensor(b_arr, requires_grad=True)
    out = op(a, b)
    seed_grad = rng.normal(size=out.shape)
    (out * Tensor(seed_grad)).sum().backward()
    num_a = numeric_gradient(
        lambda x: op(Tensor(x), Tensor(b_arr)).data, a_arr, seed_grad
    )
    num_b = numeric_gradient(
        lambda x: op(Tensor(a_arr), Tensor(x)).data, b_arr, seed_grad
    )
    # Scaled to the gradient's magnitude: a wrong backward (a lost factor,
    # a wrong sign, a broadcast summed over the wrong axis) misses by O(1).
    np.testing.assert_allclose(a.grad, num_a, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(b.grad, num_b, rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(shapes=broadcastable_pair(), seed=st.integers(0, 2**31 - 1))
def test_property_broadcast_add_gradients(shapes, seed):
    check_binary(lambda a, b: a + b, shapes[0], shapes[1], seed)


@settings(max_examples=40, deadline=None)
@given(shapes=broadcastable_pair(), seed=st.integers(0, 2**31 - 1))
def test_property_broadcast_mul_gradients(shapes, seed):
    check_binary(lambda a, b: a * b, shapes[0], shapes[1], seed)


@settings(max_examples=25, deadline=None)
@given(shapes=broadcastable_pair(), seed=st.integers(0, 2**31 - 1))
@example(shapes=((1, 2), (1, 1)), seed=1166)  # denominator 0.00296
def test_property_broadcast_div_gradients(shapes, seed):
    check_binary(lambda a, b: a / b, shapes[0], shapes[1], seed)


@settings(max_examples=25, deadline=None)
@given(shapes=broadcastable_pair(), seed=st.integers(0, 2**31 - 1))
def test_property_broadcast_sub_gradients(shapes, seed):
    check_binary(lambda a, b: a - b, shapes[0], shapes[1], seed)


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(1, 3),
    rows=st.integers(1, 4),
    inner=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_batched_matmul_broadcast(batch, rows, inner, cols, seed):
    """(B, r, i) @ (i, c): the 2-D operand broadcasts over the batch."""
    rng = np.random.default_rng(seed)
    a_arr = rng.normal(size=(batch, rows, inner))
    b_arr = rng.normal(size=(inner, cols))
    a = Tensor(a_arr, requires_grad=True)
    b = Tensor(b_arr, requires_grad=True)
    out = a.matmul(b)
    assert out.shape == (batch, rows, cols)
    seed_grad = rng.normal(size=out.shape)
    (out * Tensor(seed_grad)).sum().backward()
    num_b = numeric_gradient(
        lambda x: np.matmul(a_arr, x), b_arr, seed_grad
    )
    np.testing.assert_allclose(b.grad, num_b, atol=1e-5)
