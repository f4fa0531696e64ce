"""Compute-core fast-path machinery: shape-keyed mask caching and
reusable scratch buffers.

Two coordinated pieces keep the encoder hot path off the allocator:

* **Mask cache** — :class:`MaskCache`, an LRU keyed on
  ``(batch, length, causal, padding-mask fingerprint)``.  The causal
  ``np.triu`` mask is built once per length; combined causal+padding
  masks (including the fully-masked-row diagonal fix) are built once
  per distinct padding pattern.  Eval and serving repeatedly attend
  over the same user batches, so steady-state mask construction drops
  to a dictionary hit.
* **Scratch buffers** — :class:`ScratchPool`, a per-thread pool of
  reusable arrays for the ``(B, h, T, T)`` attention scores/probs in
  no-grad (eval/serve) paths, where no autograd node retains the
  intermediate.  Buffers are keyed on ``(tag, shape, dtype)`` and
  thread-local, so the threaded HTTP server never shares one.

See ``docs/PERFORMANCE.md`` ("Compute core") for the full inventory
and the measured effect (``benchmarks/test_encoder_throughput.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np


# ----------------------------------------------------------------------
# Shape-keyed attention-mask cache
# ----------------------------------------------------------------------
class MaskCache:
    """LRU cache of boolean attention masks.

    Two families of entries:

    * causal masks, keyed by sequence length — ``(T, T)`` upper
      triangles shared by every batch of that length;
    * combined masks, keyed by ``(batch, length, causal, fingerprint)``
      where the fingerprint is the padding mask's exact bytes —
      ``(batch, 1, T, T)`` arrays with the fully-masked-row diagonal
      fix already applied.

    Cached arrays are handed out with the writeable flag cleared so an
    accidental in-place edit cannot poison later hits.
    """

    maxsize = 64

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _get(self, key: tuple):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return value

    def _put(self, key: tuple, value: np.ndarray) -> np.ndarray:
        value.setflags(write=False)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def causal(self, length: int) -> np.ndarray:
        """The ``(length, length)`` future mask (True = disallowed)."""
        key = ("causal", length)
        cached = self._get(key)
        if cached is not None:
            return cached
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)
        return self._put(key, mask)

    def combined(
        self, causal: bool, key_padding_mask: np.ndarray, length: int
    ) -> np.ndarray:
        """Causal+padding mask ``(batch, 1, T, T)`` with NaN-row fix.

        Matches the reference construction bit-for-bit: rows that would
        be entirely masked (padding queries) get their own diagonal
        position unmasked so softmax never sees an all‑``-inf`` row.
        """
        key_padding_mask = np.ascontiguousarray(key_padding_mask, dtype=bool)
        batch = key_padding_mask.shape[0]
        key = ("combined", batch, length, causal, key_padding_mask.tobytes())
        cached = self._get(key)
        if cached is not None:
            return cached

        if causal:
            mask = np.logical_or(
                self.causal(length)[None, None, :, :],
                key_padding_mask[:, None, None, :],
            )
            # A row q is fully masked iff every key k <= q is padding
            # (the causal triangle already removes k > q): a running AND
            # over the padding mask, instead of a (B, 1, T, T) .all().
            fully_masked = np.logical_and.accumulate(key_padding_mask, axis=1)
        else:
            mask = np.broadcast_to(
                key_padding_mask[:, None, None, :], (batch, 1, length, length)
            ).copy()
            fully_masked = np.broadcast_to(
                key_padding_mask.all(axis=1)[:, None], (batch, length)
            )
        rows, positions = np.nonzero(fully_masked)
        mask[rows, 0, positions, positions] = False
        return self._put(key, mask)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict[str, int]:
        """Cache statistics (for tests and the obs layer)."""
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
        }


#: Process-wide mask cache used by :mod:`repro.nn.attention`.
MASKS = MaskCache()


# ----------------------------------------------------------------------
# Reusable scratch buffers for no-grad paths
# ----------------------------------------------------------------------
class ScratchPool:
    """Per-thread reusable arrays for no-grad intermediates.

    ``get(tag, shape, dtype)`` returns the same array on every call
    with the same key from the same thread, so eval/serve loops that
    stream equally-shaped batches stop allocating their ``(B, h, T,
    T)`` score tensors.  Callers own the contents only until their next
    ``get`` with the same tag — never hand a scratch buffer to code
    that retains it (grad-mode code must not use the pool at all).
    """

    max_entries = 16

    def __init__(self) -> None:
        self._local = threading.local()

    def _entries(self) -> OrderedDict:
        entries = getattr(self._local, "entries", None)
        if entries is None:
            entries = OrderedDict()
            self._local.entries = entries
        return entries

    def get(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A reusable C-contiguous array of ``shape``/``dtype``.

        Contents are uninitialized (whatever the previous user left);
        callers must fully overwrite it.
        """
        entries = self._entries()
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = entries.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            entries[key] = buffer
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
        else:
            entries.move_to_end(key)
        return buffer

    def clear(self) -> None:
        self._entries().clear()


#: Process-wide scratch pool for the attention no-grad fast path.
SCRATCH = ScratchPool()


def clear_caches() -> None:
    """Drop every cached mask and scratch buffer (tests, memory audits)."""
    MASKS.clear()
    SCRATCH.clear()
