"""Autograd engine: forward values, backward gradients, graph rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, concat, no_grad, stack
from tests.conftest import numeric_gradient

RNG = np.random.default_rng(0)


def check_gradient(fn, *arrays, tol=1e-6):
    """Compare autograd gradients against central differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    seed = RNG.normal(size=out.shape)
    (out * Tensor(seed)).sum().backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def partial(x, i=i):
            args = [Tensor(x if j == i else arrays[j]) for j in range(len(arrays))]
            return fn(*args).data

        numeric = numeric_gradient(partial, a, seed)
        assert t.grad is not None, f"no gradient for argument {i}"
        np.testing.assert_allclose(t.grad, numeric, atol=tol, rtol=tol)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_tensor_unwraps(self):
        inner = Tensor([1.0])
        outer = Tensor(inner)
        assert outer.data is inner.data or np.array_equal(outer.data, inner.data)

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        t = Tensor([1.0])
        np.testing.assert_array_equal((t + 2).data, [3.0])
        np.testing.assert_array_equal((2 + t).data, [3.0])

    def test_sub_rsub(self):
        t = Tensor([5.0])
        np.testing.assert_array_equal((t - 2).data, [3.0])
        np.testing.assert_array_equal((2 - t).data, [-3.0])

    def test_mul_div(self):
        t = Tensor([4.0])
        np.testing.assert_array_equal((t * 3).data, [12.0])
        np.testing.assert_array_equal((t / 2).data, [2.0])
        np.testing.assert_array_equal((8 / t).data, [2.0])

    def test_neg_pow(self):
        t = Tensor([2.0])
        np.testing.assert_array_equal((-t).data, [-2.0])
        np.testing.assert_array_equal((t**3).data, [8.0])

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_grad_add(self):
        check_gradient(lambda a, b: a + b, RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))

    def test_grad_mul(self):
        check_gradient(lambda a, b: a * b, RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))

    def test_grad_div(self):
        check_gradient(
            lambda a, b: a / b,
            RNG.normal(size=(3, 4)),
            RNG.normal(size=(3, 4)) + 3.0,
        )

    def test_grad_pow(self):
        check_gradient(lambda a: a**3, RNG.normal(size=(4,)))

    def test_grad_broadcast_bias(self):
        # (3, 4) + (4,) — the bias must receive a reduced gradient.
        check_gradient(
            lambda a, b: a + b, RNG.normal(size=(3, 4)), RNG.normal(size=(4,))
        )

    def test_grad_broadcast_scalar_like(self):
        check_gradient(
            lambda a, b: a * b, RNG.normal(size=(2, 3)), RNG.normal(size=(1, 3))
        )

    def test_grad_broadcast_new_axis(self):
        check_gradient(
            lambda a, b: a + b, RNG.normal(size=(2, 3, 4)), RNG.normal(size=(3, 4))
        )


class TestMatmul:
    def test_values(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(Tensor(a).matmul(Tensor(b)).data, a @ b)

    def test_grad_2d(self):
        check_gradient(
            lambda a, b: a.matmul(b), RNG.normal(size=(3, 4)), RNG.normal(size=(4, 5))
        )

    def test_grad_batched(self):
        check_gradient(
            lambda a, b: a.matmul(b),
            RNG.normal(size=(2, 3, 4)),
            RNG.normal(size=(2, 4, 5)),
        )

    def test_grad_vector_vector(self):
        check_gradient(
            lambda a, b: a.matmul(b), RNG.normal(size=(5,)), RNG.normal(size=(5,))
        )

    def test_grad_matrix_vector(self):
        check_gradient(
            lambda a, b: a.matmul(b), RNG.normal(size=(3, 5)), RNG.normal(size=(5,))
        )

    def test_grad_vector_matrix(self):
        check_gradient(
            lambda a, b: a.matmul(b), RNG.normal(size=(5,)), RNG.normal(size=(5, 3))
        )

    def test_operator_form(self):
        a, b = Tensor(np.eye(2)), Tensor(np.ones((2, 2)))
        np.testing.assert_array_equal((a @ b).data, np.ones((2, 2)))


class TestElementwise:
    def test_grad_exp(self):
        check_gradient(lambda a: a.exp(), RNG.normal(size=(3, 3)))

    def test_grad_log(self):
        check_gradient(lambda a: a.log(), RNG.random((3, 3)) + 0.5)

    def test_grad_sqrt(self):
        check_gradient(lambda a: a.sqrt(), RNG.random((3, 3)) + 0.5)

    def test_grad_tanh(self):
        check_gradient(lambda a: a.tanh(), RNG.normal(size=(3, 3)))

    def test_grad_sigmoid(self):
        check_gradient(lambda a: a.sigmoid(), RNG.normal(size=(3, 3)))

    def test_sigmoid_extreme_values_stable(self):
        out = Tensor([-1000.0, 1000.0]).sigmoid()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_grad_relu(self):
        check_gradient(lambda a: a.relu(), RNG.normal(size=(3, 3)) + 0.05)

    def test_relu_zero_below(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_clip_values_and_grad_inside(self):
        t = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        out = t.clip(-1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_grad_sum_all(self):
        check_gradient(lambda a: a.sum(), RNG.normal(size=(3, 4)))

    def test_grad_sum_axis(self):
        check_gradient(lambda a: a.sum(axis=0), RNG.normal(size=(3, 4)))
        check_gradient(lambda a: a.sum(axis=1), RNG.normal(size=(3, 4)))
        check_gradient(lambda a: a.sum(axis=-1), RNG.normal(size=(2, 3, 4)))

    def test_grad_sum_keepdims(self):
        check_gradient(
            lambda a: a.sum(axis=1, keepdims=True), RNG.normal(size=(3, 4))
        )

    def test_grad_sum_multi_axis(self):
        check_gradient(lambda a: a.sum(axis=(0, 2)), RNG.normal(size=(2, 3, 4)))

    def test_grad_mean(self):
        check_gradient(lambda a: a.mean(), RNG.normal(size=(3, 4)))
        check_gradient(lambda a: a.mean(axis=-1), RNG.normal(size=(3, 4)))

    def test_mean_value(self):
        assert Tensor([1.0, 2.0, 3.0]).mean().item() == 2.0

    def test_grad_max(self):
        # Perturb-safe input: distinct values so argmax is stable.
        a = np.arange(12.0).reshape(3, 4) + RNG.random((3, 4)) * 0.1
        check_gradient(lambda t: t.max(axis=1), a)

    def test_max_value(self):
        out = Tensor([[1.0, 5.0], [7.0, 2.0]]).max(axis=1)
        np.testing.assert_array_equal(out.data, [5.0, 7.0])


class TestShapes:
    def test_grad_reshape(self):
        check_gradient(lambda a: a.reshape(6, 2), RNG.normal(size=(3, 4)))

    def test_reshape_tuple_arg(self):
        t = Tensor(np.zeros((2, 6)))
        assert t.reshape((3, 4)).shape == (3, 4)

    def test_grad_transpose(self):
        check_gradient(lambda a: a.transpose(), RNG.normal(size=(3, 4)))
        check_gradient(lambda a: a.transpose(1, 0, 2), RNG.normal(size=(2, 3, 4)))

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.swapaxes(1, 2).shape == (2, 4, 3)

    def test_grad_getitem_slice(self):
        check_gradient(lambda a: a[1:3, :2], RNG.normal(size=(4, 4)))

    def test_grad_getitem_negative_index(self):
        check_gradient(lambda a: a[:, -1], RNG.normal(size=(3, 4)))

    def test_grad_take_rows_repeated(self):
        # Repeated indices must accumulate gradients (scatter-add).
        e = RNG.normal(size=(6, 3))
        idx = np.array([[0, 2, 2], [5, 0, 1]])
        check_gradient(lambda t: t.take_rows(idx), e)

    def test_take_rows_shape(self):
        e = Tensor(np.zeros((10, 4)))
        assert e.take_rows(np.zeros((2, 5), dtype=int)).shape == (2, 5, 4)

    def test_grad_expand_squeeze(self):
        check_gradient(lambda a: a.expand_dims(1), RNG.normal(size=(3, 4)))
        check_gradient(lambda a: a.squeeze(1), RNG.normal(size=(3, 1, 4)))

    def test_masked_fill_values_and_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        out = t.masked_fill(mask, -9.0)
        np.testing.assert_array_equal(out.data, [[-9.0, 1.0], [1.0, -9.0]])
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_masked_fill_broadcast_mask(self):
        t = Tensor(np.ones((2, 3)))
        out = t.masked_fill(np.array([True, False, False]), 0.0)
        np.testing.assert_array_equal(out.data, [[0, 1, 1], [0, 1, 1]])


class TestConcatStack:
    def test_grad_concat(self):
        check_gradient(
            lambda a, b: concat([a, b], axis=1),
            RNG.normal(size=(2, 3)),
            RNG.normal(size=(2, 4)),
        )

    def test_grad_stack(self):
        check_gradient(
            lambda a, b: stack([a, b], axis=0),
            RNG.normal(size=(2, 3)),
            RNG.normal(size=(2, 3)),
        )

    def test_concat_values(self):
        out = concat([Tensor([1.0]), Tensor([2.0, 3.0])], axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_stack_new_axis(self):
        out = stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=1)
        assert out.shape == (2, 2)


class TestGraphSemantics:
    def test_backward_requires_scalar_without_seed(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).backward()
        (t * 2).backward()
        np.testing.assert_array_equal(t.grad, [4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).backward()
        t.zero_grad()
        assert t.grad is None

    def test_reused_node_accumulates(self):
        # y = x*x uses x twice; dy/dx = 2x.
        t = Tensor([3.0], requires_grad=True)
        (t * t).backward()
        np.testing.assert_array_equal(t.grad, [6.0])

    def test_diamond_graph(self):
        # z = (x + x) * x => dz/dx = 4x.
        t = Tensor([2.0], requires_grad=True)
        ((t + t) * t).backward()
        np.testing.assert_array_equal(t.grad, [8.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2 + 1
        assert out._parents == ()
        assert out._backward is None

    def test_no_grad_restores_on_exception(self):
        from repro.nn.tensor import is_grad_enabled

        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_constant_inputs_produce_constant_outputs(self):
        out = Tensor([1.0]) + Tensor([2.0])
        assert out._backward is None

    def test_deep_chain_does_not_overflow(self):
        # Iterative topological sort must handle long graphs.
        t = Tensor([1.0], requires_grad=True)
        out = t
        for __ in range(3000):
            out = out + 1.0
        out.backward()
        np.testing.assert_array_equal(t.grad, [1.0])


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_add_grads_are_ones(rows, cols, seed):
    """d(sum(a + b))/da == 1 everywhere, for any shape."""
    gen = np.random.default_rng(seed)
    a = Tensor(gen.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(gen.normal(size=(rows, cols)), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((rows, cols)))
    np.testing.assert_array_equal(b.grad, np.ones((rows, cols)))


@settings(max_examples=30, deadline=None)
@given(size=st.integers(2, 8), seed=st.integers(0, 2**31 - 1))
def test_property_mul_grad_is_other_operand(size, seed):
    gen = np.random.default_rng(seed)
    a_data = gen.normal(size=size)
    b_data = gen.normal(size=size)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, b_data)
    np.testing.assert_allclose(b.grad, a_data)
