"""The compute core's one precision: float32.

Parameters, activations, gradients and optimizer state are float32 on
every path — training, evaluation, serving and online fine-tuning —
as in the PyTorch SASRec/CL4SRec references.  There is no setting: the
precision is a constant, not a config field, a flag or a process
global.

* :class:`~repro.nn.module.Parameter` rounds whatever the initializer
  drew (:mod:`repro.nn.init` draws in float64) to float32 once, when
  the model is constructed.
* :class:`~repro.nn.tensor.Tensor` keeps the dtype of float arrays and
  coerces non-float data (python lists, ints, bools) to
  :data:`DEFAULT_DTYPE`.
* float64 is reachable only through an explicit
  :meth:`~repro.nn.module.Module.to_dtype` — what the finite-difference
  gradchecks (:func:`grad_atol`) and the reference-composition oracle
  in the tests use.  Old float64 checkpoints load through the casting
  :meth:`~repro.nn.module.Module.load_state_dict`.

See ``docs/PERFORMANCE.md`` ("One precision") for what float32 costs and
buys.
"""

from __future__ import annotations

import numpy as np

#: Dtypes a Tensor may hold.  Everything else (ints, bools, lists) is
#: coerced to :data:`DEFAULT_DTYPE` on construction.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: The precision of every parameter and of non-float data made a Tensor.
DEFAULT_DTYPE = np.dtype(np.float32)

_ALIASES = {
    "float32": np.dtype(np.float32),
    "fp32": np.dtype(np.float32),
    "single": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
    "fp64": np.dtype(np.float64),
    "double": np.dtype(np.float64),
}


def resolve_dtype(spec) -> np.dtype:
    """Canonicalize a dtype spec (string, numpy dtype, or ``None``).

    ``None`` resolves to :data:`DEFAULT_DTYPE`.  Unsupported dtypes
    (integers, float16) raise ``ValueError`` — the autograd core only
    supports float32/float64.
    """
    if spec is None:
        return DEFAULT_DTYPE
    if isinstance(spec, str):
        try:
            return _ALIASES[spec.lower()]
        except KeyError:
            raise ValueError(
                f"unsupported dtype {spec!r}; expected one of "
                f"{sorted(set(_ALIASES))}"
            ) from None
    try:
        dtype = np.dtype(spec)
    except TypeError:
        raise ValueError(f"unsupported dtype spec {spec!r}") from None
    if dtype not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported dtype {dtype}; the compute core supports "
            f"float32 and float64 only"
        )
    return dtype


def default_dtype() -> np.dtype:
    """The dtype non-float data is coerced to on Tensor creation."""
    return DEFAULT_DTYPE


def grad_atol(dtype, float64_atol: float = 1e-6, float32_atol: float = 2e-2) -> float:
    """Finite-difference tolerance appropriate for ``dtype``.

    Central differences in float32 carry ~``sqrt(eps)`` noise; the
    gradcheck suite uses this helper so both precisions share one
    harness with honest tolerances.
    """
    return float32_atol if np.dtype(dtype) == np.dtype(np.float32) else float64_atol
