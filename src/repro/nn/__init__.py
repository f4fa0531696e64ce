"""A from-scratch, numpy-backed neural network library.

This subpackage is the deep-learning substrate for the CL4SRec
reproduction.  The execution environment provides no PyTorch or
TensorFlow, so we implement the pieces the paper relies on ourselves:

* :mod:`repro.nn.tensor` — a reverse-mode automatic differentiation
  engine over numpy arrays (broadcast-aware, with a topological-order
  backward pass).
* :mod:`repro.nn.functional` — softmax, activations, losses and other
  composite operations.
* :mod:`repro.nn.module` / :mod:`repro.nn.layers` — ``Module`` /
  ``Parameter`` abstractions and the standard layers (``Linear``,
  ``Embedding``, ``LayerNorm``, ``Dropout``).
* :mod:`repro.nn.attention` / :mod:`repro.nn.transformer` — multi-head
  self-attention and the Transformer encoder used by SASRec / CL4SRec:
  one fused grad kernel per op, plus a raw-numpy no-grad attention body
  for eval and serving.
* :mod:`repro.nn.rnn` — the GRU used by the GRU4Rec baseline.
* :mod:`repro.nn.optim` — SGD and Adam with linear learning-rate decay.
* :mod:`repro.nn.init` — weight initializers, including the truncated
  normal initialization the paper prescribes.
* :mod:`repro.nn.serialization` — ``.npz`` state-dict persistence.
* :mod:`repro.nn.precision` / :mod:`repro.nn.compute` — the compute
  core's one precision (float32) and fast-path machinery (shape-keyed
  mask cache, scratch buffers).

Every differentiable primitive is validated against finite differences
in the test suite.
"""

from repro.nn import compute, functional, init, precision
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.checkpoint import load_checkpoint, save_checkpoint
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, GradientClipper, LinearDecaySchedule, Optimizer
from repro.nn.rnn import GRU, GRUCell
from repro.nn.serialization import (
    CheckpointError,
    atomic_write,
    atomic_write_bytes,
    load_state_dict,
    save_state_dict,
)
from repro.nn.tensor import Tensor, concat, no_grad, stack, tensor
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Adam",
    "CheckpointError",
    "atomic_write",
    "atomic_write_bytes",
    "Dropout",
    "Embedding",
    "GRU",
    "GRUCell",
    "GradientClipper",
    "LayerNorm",
    "Linear",
    "LinearDecaySchedule",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "SGD",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "compute",
    "concat",
    "functional",
    "init",
    "load_checkpoint",
    "load_state_dict",
    "no_grad",
    "precision",
    "save_checkpoint",
    "save_state_dict",
    "stack",
    "tensor",
]
