"""Bounded replay buffer of recent interaction sequences.

The online loop fine-tunes on a sliding window of the most recent
stream traffic rather than the full history: old interactions age out
(FIFO) so the encoder tracks distribution drift — the motivation for
online adaptation in "Relative Contrastive Learning" and
"Meta-optimized Contrastive Learning" (see PAPERS.md) — while the
bounded capacity keeps per-round training cost flat no matter how long
the loop runs.  Depth and eviction counts are exported so the obs
stream (``replay_buffer_depth``) can watch the window fill.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.data.preprocessing import SequenceDataset, leave_one_out_split

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """FIFO buffer of the ``capacity`` most recent sequences.

    Deterministic by construction: contents depend only on the order of
    :meth:`extend` calls, and :meth:`as_dataset` materializes sequences
    oldest-to-newest so two loops fed the same stream build identical
    training sets.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: deque[np.ndarray] = deque()
        self.total_ingested = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        """Current number of buffered sequences (the obs gauge)."""
        return len(self._items)

    def add(self, sequence: np.ndarray) -> None:
        """Append one sequence, evicting the oldest beyond capacity."""
        self._items.append(np.asarray(sequence, dtype=np.int64))
        self.total_ingested += 1
        while len(self._items) > self.capacity:
            self._items.popleft()
            self.evicted += 1

    def extend(self, sequences: Iterable[np.ndarray]) -> int:
        """Append many sequences; returns how many were added."""
        added = 0
        for sequence in sequences:
            self.add(sequence)
            added += 1
        return added

    def sequences(self) -> list[np.ndarray]:
        """Buffered sequences oldest-to-newest (copies of references)."""
        return list(self._items)

    def as_dataset(
        self,
        base: SequenceDataset,
        name: str | None = None,
        split: bool = False,
    ) -> SequenceDataset:
        """Materialize the buffer as a :class:`SequenceDataset`.

        ``base`` supplies the item vocabulary (``num_items``) so models
        built against the serving dataset accept the result without
        re-indexing.  With ``split=False`` (the fine-tuning view) every
        full sequence becomes a training prefix and no targets are held
        out — incremental training uses everything.  With ``split=True``
        (the shadow-evaluation view) each sequence gets the standard
        leave-one-out treatment, so :class:`~repro.eval.evaluator.
        Evaluator` ranks a genuinely held-out target per user.
        """
        train: list[np.ndarray] = []
        valid: list[int | None] = []
        test: list[int | None] = []
        for sequence in self._items:
            if split:
                prefix, valid_item, test_item = leave_one_out_split(sequence)
                train.append(prefix)
                valid.append(valid_item)
                test.append(test_item)
            else:
                train.append(sequence)
                valid.append(None)
                test.append(None)
        return SequenceDataset(
            train_sequences=train,
            valid_targets=valid,
            test_targets=test,
            num_items=base.num_items,
            name=name or f"{base.name}-replay",
            statistics={
                "num_users": float(len(train)),
                "num_items": float(base.num_items),
                "buffer_capacity": float(self.capacity),
                "buffer_evicted": float(self.evicted),
            },
        )
