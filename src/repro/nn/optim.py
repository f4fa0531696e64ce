"""Optimizers and learning-rate schedules.

The paper optimizes both stages with Adam (lr=0.001, β1=0.9, β2=0.999)
and a linear decay of the learning rate (§4.1.4); :class:`Adam` and
:class:`LinearDecaySchedule` implement exactly that.

Precision: moment/velocity buffers are ``zeros_like`` the parameters,
so they inherit the model's dtype (float32, :mod:`repro.nn.precision`),
and every update and every state load runs in place, which keeps
float32 state float32 end to end — a float64 checkpoint's moments load
rounded once.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding a parameter list and the current lr."""

    kind: str = ""  # short tag identifying the update rule ("adam", "sgd")

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Persistence — flat ``name -> array`` mappings, checkpoint-ready
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return the optimizer state as a flat ``name -> array`` dict.

        Contains ``__kind__`` (the update rule tag), ``__lr__``, and
        whatever per-parameter buffers the subclass maintains.
        """
        if not self.kind:
            raise TypeError(
                f"{type(self).__name__} does not define a state_dict kind"
            )
        state: dict[str, np.ndarray] = {
            "__kind__": np.asarray(self.kind),
            "__lr__": np.asarray(self.lr),
        }
        state.update(self._state_buffers())
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict` (in place)."""
        kind = str(state["__kind__"])
        if kind != self.kind:
            raise ValueError(
                f"checkpoint holds a {kind} state, optimizer is "
                f"{type(self).__name__}"
            )
        self.lr = float(state["__lr__"])
        self._load_state_buffers(state)

    def _state_buffers(self) -> dict[str, np.ndarray]:
        """Per-parameter buffers to persist; subclasses override."""
        return {}

    def _load_state_buffers(self, state: dict[str, np.ndarray]) -> None:
        """Restore the buffers emitted by :meth:`_state_buffers`."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    kind = "sgd"

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad

    def _state_buffers(self) -> dict[str, np.ndarray]:
        return {
            f"velocity.{index}": velocity
            for index, velocity in enumerate(self._velocity)
        }

    def _load_state_buffers(self, state: dict[str, np.ndarray]) -> None:
        for index in range(len(self.params)):
            self._velocity[index][:] = state[f"velocity.{index}"]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction.

    Defaults match the paper: lr=0.001, β1=0.9, β2=0.999.
    """

    kind = "adam"

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._step_count
        bias2 = 1.0 - beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _state_buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {"__step__": np.asarray(self._step_count)}
        for index, (m, v) in enumerate(zip(self._m, self._v)):
            buffers[f"m.{index}"] = m
            buffers[f"v.{index}"] = v
        return buffers

    def _load_state_buffers(self, state: dict[str, np.ndarray]) -> None:
        self._step_count = int(state["__step__"])
        for index in range(len(self.params)):
            self._m[index][:] = state[f"m.{index}"]
            self._v[index][:] = state[f"v.{index}"]


class LinearDecaySchedule:
    """Linearly decay the optimizer lr from its initial value.

    After ``total_steps`` calls to :meth:`step` the lr reaches
    ``initial_lr * final_factor`` and stays there.
    """

    def __init__(
        self, optimizer: Optimizer, total_steps: int, final_factor: float = 0.1
    ) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if not 0.0 <= final_factor <= 1.0:
            raise ValueError("final_factor must be in [0, 1]")
        self.optimizer = optimizer
        self.total_steps = total_steps
        self.final_factor = final_factor
        self.initial_lr = optimizer.lr
        self._step_count = 0

    def step(self) -> None:
        """Advance one step and update the optimizer's lr."""
        self._step_count = min(self._step_count + 1, self.total_steps)
        progress = self._step_count / self.total_steps
        factor = 1.0 - (1.0 - self.final_factor) * progress
        self.optimizer.lr = self.initial_lr * factor

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr

    def state_dict(self) -> dict[str, np.ndarray]:
        """Schedule state needed to resume mid-run lr decay."""
        return {
            "step": np.asarray(self._step_count),
            "initial_lr": np.asarray(self.initial_lr),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output; re-applies the decayed lr."""
        self._step_count = int(state["step"])
        self.initial_lr = float(state["initial_lr"])
        if self._step_count > 0:
            progress = min(self._step_count, self.total_steps) / self.total_steps
            factor = 1.0 - (1.0 - self.final_factor) * progress
            self.optimizer.lr = self.initial_lr * factor


class GradientClipper:
    """Clip the global gradient norm of a parameter list."""

    def __init__(self, params: Iterable[Parameter], max_norm: float) -> None:
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.params = list(params)
        self.max_norm = max_norm

    def clip(self) -> float:
        """Scale gradients in place; returns the pre-clip global norm."""
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += float((param.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > self.max_norm and norm > 0:
            scale = self.max_norm / norm
            for param in self.params:
                if param.grad is not None:
                    param.grad = param.grad * scale
        return norm
