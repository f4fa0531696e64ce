"""Reverse-mode automatic differentiation over numpy arrays.

The :class:`Tensor` class records a dynamic computation graph as
operations execute; calling :meth:`Tensor.backward` walks the graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

Design notes
------------
* All arithmetic is broadcast-aware: gradients flowing back through a
  broadcast are reduced with :func:`_unbroadcast` so that a parameter of
  shape ``(d,)`` added to a batch of shape ``(b, d)`` receives a
  gradient of shape ``(d,)``.
* A handful of numerically sensitive composites (softmax, log-softmax,
  layer normalization) are implemented as fused primitives in
  :mod:`repro.nn.functional` with analytic backward rules; everything
  else composes the primitives defined here.
* ``float32`` is the one precision (:mod:`repro.nn.precision`).  Float
  arrays (float32/float64) keep their own dtype through every op, so a
  float32 model propagates float32 activations end to end; non-float
  payloads (lists, ints, bools) are coerced to float32, and scalars
  folded into arithmetic adopt the other operand's dtype so a python
  ``0.5`` never silently upcasts a float32 graph.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from repro.nn.precision import DEFAULT_DTYPE, SUPPORTED_DTYPES
from repro.obs import profiling as _profiling

Arrayish = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used for evaluation loops where gradients are not needed; inside the
    block every operation produces constant tensors, which keeps memory
    flat during full-ranking evaluation.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast.

    Summing over the leading axes that were added by broadcasting and
    over any axis that was expanded from size one.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse broadcast dimensions (size 1 in the original shape).
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _scatter_rows(
    indices: np.ndarray, rows: np.ndarray, shape: tuple[int, ...], dtype
) -> np.ndarray:
    """Zeros of ``shape`` with each ``rows[i]`` added into row ``indices[i]``.

    The backward of a gather along axis 0, where repeated indices sum.
    A stable sort groups each index's rows in their order of occurrence
    and ``np.add.reduceat`` sums every group in one pass — about three
    times faster than ``np.add.at`` on an embedding table's gradient.
    The sums equal ``np.add.at``'s to rounding, and exactly on
    integer-valued gradients.
    """
    full = np.zeros(shape, dtype=dtype)
    if indices.size == 0:
        return full
    order = np.argsort(indices, kind="stable")
    ordered = indices[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    full[ordered[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return full


def _is_integer_array(part) -> bool:
    return isinstance(part, (list, np.ndarray)) and np.asarray(part).dtype.kind in "iu"


def _getitem_grad(key, grad: np.ndarray, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The gradient of ``array[key]`` for an ``array`` of ``shape``.

    Only integer arrays can select an element more than once.  Without
    one the gradient is assigned, which equals a scatter-add into zeros;
    with one it is summed element by element by :func:`_scatter_rows`.
    """
    parts = key if isinstance(key, tuple) else (key,)
    if any(_is_integer_array(part) for part in parts):
        size = int(np.prod(shape))
        indices = np.arange(size).reshape(shape)[key].reshape(-1)
        return _scatter_rows(indices, grad.reshape(-1), (size,), dtype).reshape(shape)
    full = np.zeros(shape, dtype=dtype)
    full[key] = grad
    return full


def _as_array(value: Arrayish, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected a raw array-like, got a Tensor")
    return np.asarray(value, dtype=dtype if dtype is not None else DEFAULT_DTYPE)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  Float32/float64 arrays are stored as-is;
        anything else (lists, ints, bools) is coerced to float32
        (:data:`repro.nn.precision.DEFAULT_DTYPE`).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data)
        if data.dtype not in SUPPORTED_DTYPES:
            data = data.astype(DEFAULT_DTYPE)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data.item())

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph utilities
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Run reverse-mode autodiff from this scalar tensor (seed ``1.0``)."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar tensor, got shape {self.shape}"
            )
        gradient = np.ones_like(self.data)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS to tolerate deep graphs (long training loops).
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): gradient}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            for parent, parent_grad in node._backward(node_grad):
                if parent_grad is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Iterable[tuple["Tensor", np.ndarray | None]]],
    ) -> "Tensor":
        """Create an op result, recording the graph only when needed."""
        if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
            return Tensor(data, _parents=tuple(parents), _backward=backward)
        return Tensor(data)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: Arrayish, like: np.ndarray | None = None) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        # Scalars and lists folded into arithmetic adopt the other
        # operand's dtype: under NEP 50 a 0-d float64 array is "strong"
        # and would silently upcast a float32 graph.
        dtype = like.dtype if like is not None else DEFAULT_DTYPE
        return Tensor(np.asarray(value, dtype=dtype))

    def __add__(self, other: Arrayish) -> "Tensor":
        other = Tensor._coerce(other, like=self.data)
        out = self.data + other.data

        def backward(grad: np.ndarray):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(grad, other.shape)),
            )

        return Tensor._make(out, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: Arrayish) -> "Tensor":
        other = Tensor._coerce(other, like=self.data)
        out = self.data - other.data

        def backward(grad: np.ndarray):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(-grad, other.shape)),
            )

        return Tensor._make(out, (self, other), backward)

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return Tensor._coerce(other, like=self.data) - self

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = Tensor._coerce(other, like=self.data)
        out = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (
                (self, _unbroadcast(grad * other_data, self.shape)),
                (other, _unbroadcast(grad * self_data, other.shape)),
            )

        return Tensor._make(out, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = Tensor._coerce(other, like=self.data)
        out = self.data / other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            return (
                (self, _unbroadcast(grad / other_data, self.shape)),
                (
                    other,
                    _unbroadcast(-grad * self_data / (other_data**2), other.shape),
                ),
            )

        return Tensor._make(out, (self, other), backward)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return Tensor._coerce(other, like=self.data) / self

    def __neg__(self) -> "Tensor":
        out = -self.data

        def backward(grad: np.ndarray):
            return ((self, -grad),)

        return Tensor._make(out, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out = self.data**exponent
        self_data = self.data

        def backward(grad: np.ndarray):
            return ((self, grad * exponent * self_data ** (exponent - 1)),)

        return Tensor._make(out, (self,), backward)

    def __matmul__(self, other: Arrayish) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Arrayish) -> "Tensor":
        """Matrix product supporting batched operands (via ``np.matmul``)."""
        profiler = _profiling.active()
        if profiler is None:
            return self._matmul_impl(other)
        with profiler.scope("tensor.matmul"):
            return self._matmul_impl(other)

    def _matmul_impl(self, other: Arrayish) -> "Tensor":
        other = Tensor._coerce(other, like=self.data)
        out = np.matmul(self.data, other.data)
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray):
            if other_data.ndim == 1 and self_data.ndim == 1:
                grad_self = grad * other_data
                grad_other = grad * self_data
            elif other_data.ndim == 1:
                grad_self = np.expand_dims(grad, -1) * other_data
                grad_other = _unbroadcast(
                    (np.expand_dims(grad, -1) * self_data).sum(axis=-2)
                    if self_data.ndim > 2
                    else self_data.T @ grad,
                    other_data.shape,
                )
                grad_self = _unbroadcast(grad_self, self_data.shape)
            elif self_data.ndim == 1:
                grad_self = _unbroadcast(
                    np.matmul(grad, np.swapaxes(other_data, -1, -2)), self_data.shape
                )
                grad_other = np.matmul(
                    np.expand_dims(self_data, -1), np.expand_dims(grad, -2)
                )
                grad_other = _unbroadcast(grad_other, other_data.shape)
            else:
                grad_self = _unbroadcast(
                    np.matmul(grad, np.swapaxes(other_data, -1, -2)), self_data.shape
                )
                grad_other = _unbroadcast(
                    np.matmul(np.swapaxes(self_data, -1, -2), grad), other_data.shape
                )
            return ((self, grad_self), (other, grad_other))

        return Tensor._make(out, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def backward(grad: np.ndarray):
            return ((self, grad * out),)

        return Tensor._make(out, (self,), backward)

    def log(self) -> "Tensor":
        out = np.log(self.data)
        self_data = self.data

        def backward(grad: np.ndarray):
            return ((self, grad / self_data),)

        return Tensor._make(out, (self,), backward)

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return ((self, grad / (2.0 * out)),)

        return Tensor._make(out, (self,), backward)

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return ((self, grad * (1.0 - out**2)),)

        return Tensor._make(out, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic function.
        out = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, 0, None))),
            np.exp(np.clip(self.data, None, 0))
            / (1.0 + np.exp(np.clip(self.data, None, 0))),
        )

        def backward(grad: np.ndarray):
            return ((self, grad * out * (1.0 - out)),)

        return Tensor._make(out, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self.data * mask

        def backward(grad: np.ndarray):
            return ((self, grad * mask),)

        return Tensor._make(out, (self,), backward)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values; gradient is passed through inside the range."""
        out = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data >= low
        if high is not None:
            inside &= self.data <= high

        def backward(grad: np.ndarray):
            return ((self, grad * inside),)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        self_shape = self.shape

        def backward(grad: np.ndarray):
            expanded = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % len(self_shape) for a in axes):
                    expanded = np.expand_dims(expanded, ax)
            return ((self, np.broadcast_to(expanded, self_shape).copy()),)

        return Tensor._make(np.asarray(out), (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        argmax = np.expand_dims(self.data.argmax(axis=axis), axis)
        self_shape = self.shape

        self_dtype = self.data.dtype

        def backward(grad: np.ndarray):
            expanded = grad if keepdims else np.expand_dims(grad, axis)
            full = np.zeros(self_shape, dtype=self_dtype)
            np.put_along_axis(full, argmax, expanded, axis)
            return ((self, full),)

        return Tensor._make(np.asarray(out), (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray):
            return ((self, grad.reshape(original)),)

        return Tensor._make(out, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray):
            return ((self, grad.transpose(inverse)),)

        return Tensor._make(out, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]
        self_shape = self.shape
        self_dtype = self.data.dtype

        def backward(grad: np.ndarray):
            return ((self, _getitem_grad(key, grad, self_shape, self_dtype)),)

        return Tensor._make(np.asarray(out), (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along axis 0 (embedding lookup).

        ``indices`` may have any shape; the result has shape
        ``indices.shape + self.shape[1:]``.  The backward pass
        scatter-adds into the source rows (:func:`_scatter_rows`), which
        is the behaviour embedding tables need when indices repeat.
        """
        indices = np.asarray(indices)
        out = self.data[indices]
        self_shape = self.shape
        self_dtype = self.data.dtype

        def backward(grad: np.ndarray):
            rows = grad.reshape(-1, *self_shape[1:])
            full = _scatter_rows(indices.reshape(-1), rows, self_shape, self_dtype)
            return ((self, full),)

        return Tensor._make(out, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is true with ``value``.

        The gradient is zero at masked positions.  ``mask`` broadcasts
        against the tensor's shape (as in attention masking).
        """
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), self.shape)
        out = np.where(mask, value, self.data)

        def backward(grad: np.ndarray):
            return ((self, np.where(mask, 0.0, grad)),)

        return Tensor._make(out, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray):
            return ((self, np.squeeze(grad, axis=axis)),)

        return Tensor._make(out, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        out = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray):
            return ((self, np.expand_dims(grad, axis)),)

        return Tensor._make(out, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        slices = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            slices.append((t, grad[tuple(index)]))
        return slices

    return Tensor._make(out, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        parts = np.split(grad, len(tensors), axis=axis)
        return [
            (t, np.squeeze(part, axis=axis)) for t, part in zip(tensors, parts)
        ]

    return Tensor._make(out, tuple(tensors), backward)
