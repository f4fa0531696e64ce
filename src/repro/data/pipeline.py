"""High-throughput batch construction (``pipeline="vectorized"``).

What turns the per-sequence Python loops of the reference loaders into
O(batch) numpy work:

* :func:`padded_views` — each dataset's left-padded input/target/full
  matrices are computed **once** (vectorized, no per-user loop) and
  cached on the dataset object, invalidated automatically when the
  dataset changes.  Batch construction then reduces to fancy indexing.
* :class:`CyclingStream` — the joint regime's endless contrastive side.

Batches are built on the training thread, one per step, on both
pipelines: there is no prefetch thread (``docs/PERFORMANCE.md`` "Why
there is no prefetch thread" has the measurement).  Determinism: the
vectorized loaders draw from a dedicated child stream
(:func:`repro.augment.batched.spawn_stream`) — a fixed seed reproduces
runs bit-for-bit, asserted end-to-end in
``tests/integration/test_determinism_e2e.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Recognized values of the ``pipeline`` config switch.
PIPELINES = ("reference", "vectorized")

#: Attribute under which a dataset caches its padded views.
_CACHE_ATTR = "_repro_padded_views"


def validate_pipeline(pipeline: str) -> str:
    """Return ``pipeline`` or raise on an unknown switch value."""
    if pipeline not in PIPELINES:
        raise ValueError(
            f"pipeline must be one of {PIPELINES}, got {pipeline!r}"
        )
    return pipeline


@dataclass(frozen=True)
class PaddedViews:
    """Precomputed left-padded matrices for one dataset at one ``T``.

    Attributes
    ----------
    inputs / targets:
        ``(U, T)`` supervised next-item matrices —
        ``pad_left(seq[:-1], T)`` and ``pad_left(seq[1:], T)`` for
        every user, exactly what the reference loop produced per batch.
    sequences / lengths:
        ``(U, T)`` full training sequences (last ``T`` items) and
        their clamped lengths ``min(len(seq), T)`` — the substrate the
        batched augmentations transform.
    fingerprint:
        Cheap dataset summary used to invalidate the cache when the
        dataset's sequences change.
    """

    inputs: np.ndarray
    targets: np.ndarray
    sequences: np.ndarray
    lengths: np.ndarray
    fingerprint: tuple

    @property
    def max_length(self) -> int:
        return self.inputs.shape[1]


def _fingerprint(train_sequences: Sequence[np.ndarray], num_items: int) -> tuple:
    total = int(sum(len(seq) for seq in train_sequences))
    return (len(train_sequences), total, int(num_items))


def _pad_rows(
    flat: np.ndarray, starts: np.ndarray, counts: np.ndarray, max_length: int
) -> np.ndarray:
    """Left-pad ``flat[starts[r] : starts[r] + counts[r]]`` per row.

    Pure fancy indexing — the whole ``(U, T)`` matrix is gathered in
    one shot instead of U per-row ``pad_left`` calls.
    """
    rows = len(starts)
    out = np.zeros((rows, max_length), dtype=np.int64)
    if rows == 0 or flat.size == 0:
        return out
    offsets = np.arange(max_length)[None, :] - (max_length - counts)[:, None]
    valid = offsets >= 0
    source = starts[:, None] + np.where(valid, offsets, 0)
    np.copyto(out, flat[np.clip(source, 0, flat.size - 1)], where=valid)
    return out


def build_padded_views(
    train_sequences: Sequence[np.ndarray], max_length: int, num_items: int
) -> PaddedViews:
    """Compute :class:`PaddedViews` for a sequence list (no caching)."""
    if max_length < 1:
        raise ValueError(f"max_length must be positive, got {max_length}")
    lengths_full = np.fromiter(
        (len(seq) for seq in train_sequences),
        dtype=np.int64,
        count=len(train_sequences),
    )
    flat = (
        np.concatenate([np.asarray(s, dtype=np.int64) for s in train_sequences])
        if lengths_full.sum() > 0
        else np.empty(0, dtype=np.int64)
    )
    ends = np.cumsum(lengths_full)

    # Full sequences, keeping the most recent max_length items.
    seq_counts = np.minimum(lengths_full, max_length)
    sequences = _pad_rows(flat, ends - seq_counts, seq_counts, max_length)

    # Supervised views: inputs = pad_left(seq[:-1], T) ends one item
    # early; targets = pad_left(seq[1:], T) ends at the sequence end.
    shifted_counts = np.minimum(np.maximum(lengths_full - 1, 0), max_length)
    inputs = _pad_rows(flat, (ends - 1) - shifted_counts, shifted_counts, max_length)
    targets = _pad_rows(flat, ends - shifted_counts, shifted_counts, max_length)

    return PaddedViews(
        inputs=inputs,
        targets=targets,
        sequences=sequences,
        lengths=seq_counts,
        fingerprint=_fingerprint(train_sequences, num_items),
    )


def padded_views(dataset, max_length: int) -> PaddedViews:
    """The dataset's cached :class:`PaddedViews` at ``max_length``.

    The first call per ``(dataset, max_length)`` builds the matrices;
    subsequent calls are a dict lookup.  A cheap fingerprint (sequence
    count, total interactions, vocabulary size) detects dataset
    mutation and rebuilds stale entries.
    """
    fingerprint = _fingerprint(dataset.train_sequences, dataset.num_items)
    cache: dict[int, PaddedViews] = dataset.__dict__.setdefault(_CACHE_ATTR, {})
    views = cache.get(max_length)
    if views is None or views.fingerprint != fingerprint:
        views = build_padded_views(
            dataset.train_sequences, max_length, dataset.num_items
        )
        cache[max_length] = views
    return views


class CyclingStream:
    """An endless batch stream cycling over ``loader.epoch()`` passes.

    The joint training loop consumes one contrastive batch per
    supervised batch; epochs of the two loaders need not line up, so
    the contrastive side cycles — when one augmented pass is
    exhausted, a fresh ``epoch()`` begins transparently.
    """

    def __init__(self, loader) -> None:
        self.loader = loader
        self._current = iter(())

    def next(self):
        """The next batch, starting a fresh epoch when one runs dry."""
        try:
            return next(self._current)
        except StopIteration:
            self._current = self.loader.epoch()
            # A second StopIteration (loader yields no batches at all)
            # is a real error and propagates.
            return next(self._current)
