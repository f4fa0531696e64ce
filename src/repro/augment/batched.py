"""Matrix-form augmentations over left-padded batches (the fast path).

The scalar operators in :mod:`repro.augment` transform one sequence at
a time — clear as a reference implementation of the paper's Eq. 4–6,
but a per-row Python loop dominates contrastive-epoch wall time once
batches reach production size.  This module provides the vectorized
counterparts: each ``Batch*`` operator transforms a whole ``(B, T)``
left-padded item matrix (pad id 0 on the left, per-row true lengths
given separately) with a handful of numpy calls.

Contract shared by every batched operator::

    out, out_lengths = op(padded, lengths, rng)

* ``padded`` — ``(B, T)`` int64, row ``b``'s real items occupying the
  last ``lengths[b]`` columns (exactly what
  :func:`repro.data.loaders.pad_left` produces).  Never mutated.
* ``lengths`` — ``(B,)`` true sequence lengths, ``0 <= lengths <= T``.
* ``rng`` — a :class:`numpy.random.Generator`; same state ⇒ same
  output (bit-deterministic under a fixed seed).
* ``out`` — a new ``(B, T)`` left-padded matrix; ``out_lengths`` the
  per-row lengths of the transformed views.

Randomness model: callers that need consumption isolation (the
vectorized loaders) derive a dedicated child stream with
:func:`spawn_stream` — ``rng.spawn()`` under the hood — so the number
of values an operator consumes never perturbs any other stream.
Within one operator call, per-row randomness is the rows of a single
``(B,)`` / ``(B, T)`` matrix draw: row ``b`` sees its own independent
stream slice, which is what makes each batched operator
*distributionally equivalent* to applying its scalar counterpart
independently per row (property-tested in
``tests/augment/test_batched.py``).

Edge cases (mirroring the scalar operators): all-padding rows
(``lengths[b] == 0``) pass through unchanged; ``n == 1`` rows are a
fixed point of crop (the single item survives) and reorder (no window
of size ≥ 2 exists) but can still be masked.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.augment.base import Augmentation, Identity
from repro.augment.compose import Compose, PairSampler
from repro.augment.crop import Crop
from repro.augment.mask import Mask
from repro.augment.reorder import Reorder


def spawn_stream(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Uses :meth:`numpy.random.Generator.spawn`, so the child's draws
    never consume from (or race with) the parent's main stream — the
    parent only advances its spawn counter, deterministically.  Falls
    back to seeding a fresh generator from one parent draw when the
    parent was built without a seed sequence.
    """
    try:
        return rng.spawn(1)[0]
    except (AttributeError, TypeError):  # generator without a SeedSequence
        return np.random.default_rng(int(rng.integers(0, 2**63)))


def _validate_batch(
    padded: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    padded = np.asarray(padded, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if padded.ndim != 2:
        raise ValueError(f"padded batch must be 2-D, got shape {padded.shape}")
    if lengths.shape != (padded.shape[0],):
        raise ValueError(
            f"lengths must be ({padded.shape[0]},), got {lengths.shape}"
        )
    if lengths.size and (lengths.min() < 0 or lengths.max() > padded.shape[1]):
        raise ValueError("lengths must lie in [0, T]")
    return padded, lengths


class BatchedAugmentation(abc.ABC):
    """A vectorized augmentation over a left-padded ``(B, T)`` batch."""

    @abc.abstractmethod
    def __call__(
        self,
        padded: np.ndarray,
        lengths: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(out, out_lengths)`` — a transformed copy."""


class BatchCrop(BatchedAugmentation):
    """Vectorized :class:`~repro.augment.crop.Crop` (paper Eq. 4).

    Row ``b`` keeps a contiguous window of ``max(1, floor(eta * n_b))``
    items starting at a uniformly random offset — the same law as the
    scalar operator, drawn for all rows at once.  All-padding rows
    (``n_b == 0``) are returned unchanged.
    """

    def __init__(self, eta: float) -> None:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        self.eta = eta

    def __call__(self, padded, lengths, rng):
        padded, n = _validate_batch(padded, lengths)
        B, T = padded.shape
        crop = np.maximum(1, np.floor(self.eta * n).astype(np.int64))
        crop = np.where(n > 0, np.minimum(crop, n), 0)
        start = rng.integers(0, n - crop + 1)  # (B,) uniform per row
        offsets = np.arange(T)[None, :] - (T - crop)[:, None]
        valid = offsets >= 0
        source = (T - n + start)[:, None] + np.where(valid, offsets, 0)
        gathered = np.take_along_axis(padded, np.clip(source, 0, T - 1), axis=1)
        return np.where(valid, gathered, 0), crop

    def __repr__(self) -> str:
        return f"BatchCrop(eta={self.eta})"


class BatchMask(BatchedAugmentation):
    """Vectorized :class:`~repro.augment.mask.Mask` (paper Eq. 5).

    Row ``b`` overwrites ``floor(gamma * n_b)`` real positions —
    chosen uniformly without replacement via random-key ranking — with
    ``mask_token``.  Lengths are preserved; padding is never masked.
    """

    def __init__(self, gamma: float, mask_token: int) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if mask_token <= 0:
            raise ValueError(f"mask_token must be a positive id, got {mask_token}")
        self.gamma = gamma
        self.mask_token = mask_token

    def __call__(self, padded, lengths, rng):
        padded, n = _validate_batch(padded, lengths)
        B, T = padded.shape
        num_masked = np.floor(self.gamma * n).astype(np.int64)
        keys = rng.random((B, T))
        columns = np.arange(T)[None, :]
        real = columns >= (T - n)[:, None]
        # Rank the real positions of each row by an i.i.d. uniform key:
        # the m lowest-ranked form a uniform m-subset without
        # replacement, exactly the scalar rng.choice(..., replace=False).
        order = np.argsort(np.where(real, keys, np.inf), axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.broadcast_to(columns, (B, T)), axis=1)
        chosen = real & (ranks < num_masked[:, None])
        return np.where(chosen, self.mask_token, padded), n.copy()

    def __repr__(self) -> str:
        return f"BatchMask(gamma={self.gamma}, mask_token={self.mask_token})"


class BatchReorder(BatchedAugmentation):
    """Vectorized :class:`~repro.augment.reorder.Reorder` (paper Eq. 6).

    Row ``b`` permutes a contiguous window of ``floor(beta * n_b)``
    items at a uniformly random offset; rows whose window would be
    shorter than 2 (including ``n_b <= 1``) pass through unchanged.
    The permutation is uniform: window items are re-sorted by i.i.d.
    uniform keys while every other position keeps its integer column
    as its key, so only the window moves.
    """

    def __init__(self, beta: float) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.beta = beta

    def __call__(self, padded, lengths, rng):
        padded, n = _validate_batch(padded, lengths)
        B, T = padded.shape
        window = np.floor(self.beta * n).astype(np.int64)
        active = window >= 2
        start = rng.integers(0, np.maximum(n - window, 0) + 1)
        window_start = T - n + start  # column of the window's first item
        keys = rng.random((B, T))
        columns = np.arange(T)[None, :]
        in_window = (
            active[:, None]
            & (columns >= window_start[:, None])
            & (columns < (window_start + window)[:, None])
        )
        # Window keys are floats inside [start, start + window); all
        # other columns keep their integer index, so argsort permutes
        # the window uniformly and leaves everything else in place.
        sort_key = np.where(
            in_window, window_start[:, None] + window[:, None] * keys, columns
        )
        perm = np.argsort(sort_key, axis=1, kind="stable")
        return np.take_along_axis(padded, perm, axis=1), n.copy()

    def __repr__(self) -> str:
        return f"BatchReorder(beta={self.beta})"


class BatchIdentity(BatchedAugmentation):
    """Vectorized no-op (ablation control): returns copies unchanged."""

    def __call__(self, padded, lengths, rng):
        padded, n = _validate_batch(padded, lengths)
        return padded.copy(), n.copy()

    def __repr__(self) -> str:
        return "BatchIdentity()"


class BatchCompose(BatchedAugmentation):
    """Apply batched operators left-to-right (vectorized ``Compose``)."""

    def __init__(self, operators: Sequence[BatchedAugmentation]) -> None:
        if not operators:
            raise ValueError("BatchCompose requires at least one operator")
        self.operators = list(operators)

    def __call__(self, padded, lengths, rng):
        out, n = _validate_batch(padded, lengths)
        for operator in self.operators:
            out, n = operator(out, n, rng)
        return out, n

    def __repr__(self) -> str:
        inner = ", ".join(repr(op) for op in self.operators)
        return f"BatchCompose([{inner}])"


def batched_operator(operator: Augmentation) -> BatchedAugmentation:
    """The vectorized counterpart of a scalar operator.

    ``Crop`` / ``Mask`` / ``Reorder`` / ``Identity`` / ``Compose`` map
    to their matrix forms; any other operator has none and is refused
    with a ``TypeError`` naming it (docs/EXTENDING.md "Adding an
    augmentation").
    """
    if isinstance(operator, BatchedAugmentation):
        return operator
    if isinstance(operator, Crop):
        return BatchCrop(operator.eta)
    if isinstance(operator, Mask):
        return BatchMask(operator.gamma, operator.mask_token)
    if isinstance(operator, Reorder):
        return BatchReorder(operator.beta)
    if isinstance(operator, Identity):
        return BatchIdentity()
    if isinstance(operator, Compose):
        return BatchCompose([batched_operator(op) for op in operator.operators])
    raise TypeError(
        f"{type(operator).__name__} has no matrix form; a batched operator "
        "is needed for the vectorized pipeline"
    )


class BatchPairSampler:
    """Vectorized :class:`~repro.augment.compose.PairSampler` (§3.2.1).

    For every row two operators are sampled from the augmentation set
    (independently, or forced-distinct for the composition study) and
    applied to that row, producing the two correlated views of a
    positive pair — all rows at once.  Rows assigned the same operator
    are transformed together in one matrix call.

    Each invocation derives a private child stream via
    :func:`spawn_stream`, so how much randomness one batch consumes
    never shifts the caller's stream — a prerequisite for overlapping
    batch construction with training (see ``docs/PERFORMANCE.md``).
    """

    def __init__(
        self,
        operators: Sequence[BatchedAugmentation],
        distinct: bool = False,
    ) -> None:
        if not operators:
            raise ValueError("BatchPairSampler requires at least one operator")
        self.operators = list(operators)
        self.distinct = distinct and len(self.operators) >= 2

    @classmethod
    def from_scalar(cls, sampler: PairSampler) -> "BatchPairSampler":
        """Lift a scalar pair sampler into its batched equivalent."""
        return cls(
            [batched_operator(op) for op in sampler.operators],
            distinct=sampler.distinct,
        )

    def __call__(
        self,
        padded: np.ndarray,
        lengths: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Return ``((view_a, len_a), (view_b, len_b))`` for the batch."""
        padded, lengths = _validate_batch(padded, lengths)
        stream = spawn_stream(rng)
        count = len(self.operators)
        first = stream.integers(0, count, size=len(padded))
        if self.distinct:
            offset = stream.integers(1, count, size=len(padded))
            second = (first + offset) % count
        else:
            second = stream.integers(0, count, size=len(padded))
        return (
            self._apply(padded, lengths, first, stream),
            self._apply(padded, lengths, second, stream),
        )

    def _apply(self, padded, lengths, choices, stream):
        out = np.zeros_like(padded)
        out_lengths = np.zeros_like(lengths)
        for index, operator in enumerate(self.operators):
            rows = np.flatnonzero(choices == index)
            if not len(rows):
                continue
            view, view_lengths = operator(padded[rows], lengths[rows], stream)
            out[rows] = view
            out_lengths[rows] = view_lengths
        return out, out_lengths

    def __repr__(self) -> str:
        inner = ", ".join(repr(op) for op in self.operators)
        return f"BatchPairSampler([{inner}], distinct={self.distinct})"
