"""The dtype policy of the compute core.

Everything in :mod:`repro.nn` historically ran in ``float64``: cheap at
CPU gradcheck scale and tight for finite-difference checks.  At serving
and benchmark scale the picture inverts — SASRec and BERT4Rec train and
serve in float32, and float64 roughly halves BLAS throughput while
doubling memory bandwidth on the matmuls that dominate the encoder.

This module makes the precision an explicit, scoped policy instead of a
hard-coded constant:

* :func:`default_dtype` / :func:`set_default_dtype` — the process-wide
  dtype used when a :class:`~repro.nn.tensor.Tensor` is created from
  non-float data (python lists, ints, bools).  Float arrays keep their
  own dtype, so a float32 model propagates float32 activations without
  any global state.
* :func:`precision` — a context manager scoping the default, used by
  the training loops (``TrainConfig.dtype`` et al.) so a float32 run
  cannot leak its policy into subsequent float64 code.
* :func:`resolve_dtype` — maps config/CLI spellings (``"float32"``,
  ``"float64"``, ``"fp32"``, numpy dtypes, ``None``) onto a canonical
  numpy dtype.

The default stays ``float64`` — goldens, gradchecks and every existing
call site are bit-identical.  Float32 is strictly opt-in (per training
config, per engine, or per CLI ``--dtype`` flag); see
``docs/PERFORMANCE.md`` ("Compute core") for when it is safe.
"""

from __future__ import annotations

import contextlib

import numpy as np

#: Dtypes a Tensor may hold.  Everything else (ints, bools, lists) is
#: coerced to the current default on construction.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_DEFAULT_DTYPE = np.dtype(np.float64)

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

    ``None`` resolves to the current default, so configs can leave the
    policy untouched by default.  Unsupported dtypes (integers,
    float16) raise ``ValueError`` — the autograd core only supports
    float32/float64.
    """
    if spec is None:
        return _DEFAULT_DTYPE
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
    return _DEFAULT_DTYPE


def set_default_dtype(spec) -> np.dtype:
    """Set the process-wide default dtype; returns the previous one.

    Prefer the scoped :func:`precision` context manager — a bare set
    leaks the policy into unrelated code.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolve_dtype(spec)
    return previous


@contextlib.contextmanager
def precision(spec):
    """Scope the default dtype: ``with precision("float32"): ...``."""
    previous = set_default_dtype(spec)
    try:
        yield _DEFAULT_DTYPE
    finally:
        set_default_dtype(previous)


def grad_atol(dtype, float64_atol: float = 1e-6, float32_atol: float = 2e-2) -> float:
    """Finite-difference tolerance appropriate for ``dtype``.

    Central differences in float32 carry ~``sqrt(eps)`` noise; the
    gradcheck suite uses this helper so both precisions share one
    harness with honest tolerances.
    """
    return float32_atol if np.dtype(dtype) == np.dtype(np.float32) else float64_atol
