"""``Module`` / ``Parameter`` abstractions for building models.

Modeled on the familiar torch API: modules register parameters and
sub-modules automatically via ``__setattr__``, expose ``parameters()``,
``state_dict()`` / ``load_state_dict()``, and a train/eval flag that
layers such as :class:`repro.nn.layers.Dropout` respect.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import precision as _precision
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable model parameter, held in float32.

    The initializers draw in float64; the draw is rounded to float32
    once, here.  Replacing a constructed parameter's values therefore
    means assigning a new ``Parameter``, never ``param.data``.
    """

    def __init__(self, data) -> None:
        data = np.asarray(data, dtype=_precision.DEFAULT_DTYPE)
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a sub-module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for __, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat ``name -> array`` mapping (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a flat mapping.

        The key sets and every shape must match exactly.  Values are
        cast to each parameter's own dtype, so a float64 checkpoint
        loads into a float32 model rounded once, without changing the
        model's precision.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, values in state.items():
            param = own[name]
            values = np.asarray(values, dtype=param.data.dtype)
            if param.data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': "
                    f"{param.data.shape} vs {values.shape}"
                )
            param.data = values.copy()

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns ``self``.

        Models are constructed in float32 (:class:`Parameter`); this
        cast is the one way to another precision — float64 for
        finite-difference gradchecks and test oracles.  Cast before the
        optimizer is created, so Adam's ``zeros_like`` buffers inherit
        the dtype.  A same-dtype cast is a no-op.
        """
        dtype = _precision.resolve_dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != dtype:
                param.data = param.data.astype(dtype)
                if param.grad is not None:
                    param.grad = param.grad.astype(dtype)
        return self

    def param_dtype(self) -> np.dtype:
        """The dtype of the module's parameters (first parameter wins)."""
        for param in self.parameters():
            return param.data.dtype
        return _precision.DEFAULT_DTYPE

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError
