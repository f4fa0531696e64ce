"""Streaming ingestion: serving traffic → incremental training data.

Turns a :class:`~repro.data.synthetic.TrafficTrace` (or any iterator of
its event dicts) into per-round batches of interaction sequences.  Two
payload shapes arrive on the wire (see ``docs/SERVING.md``):

* ``{"sequence": [...]}`` — a cold visitor's raw session; the item ids
  are the interactions themselves, so the session *is* the training
  sequence (invalid ids outside ``[1, num_items]`` are dropped).
* ``{"user": u}`` — a hot user identified by dataset id; their current
  history (``dataset.full_sequence``) is re-observed, which weights the
  replay buffer toward the Zipf head exactly as live traffic would.

A deterministic round-robin counter routes every ``holdout_every``-th
eligible sequence to the shadow-evaluation holdout instead of the
training set, so the held-out traffic is disjoint from what the
fine-tuner sees and identical across runs at a fixed trace seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import TrafficTrace

__all__ = ["StreamBatch", "StreamIngestor"]


@dataclass
class StreamBatch:
    """One round's worth of consumed stream traffic."""

    #: HTTP-level events consumed (a batch request is one event).
    events: int = 0
    #: Sequences routed to the training side of the split.
    train: list[np.ndarray] = field(default_factory=list)
    #: Sequences routed to the shadow-evaluation holdout.
    holdout: list[np.ndarray] = field(default_factory=list)
    #: Payloads dropped (too short after filtering, unknown user, …).
    skipped: int = 0
    #: True when the source ran dry before the event budget was spent.
    exhausted: bool = False

    @property
    def sequences(self) -> int:
        return len(self.train) + len(self.holdout)


class StreamIngestor:
    """Stateful consumer over a traffic event stream.

    The iterator persists across :meth:`take` calls, so successive
    rounds consume successive spans of the trace — replaying the trace
    from the start each round would show the fine-tuner the same data
    twice and hide drift.
    """

    def __init__(
        self,
        source: TrafficTrace | Iterator[dict],
        dataset: SequenceDataset | None = None,
        holdout_every: int = 4,
        min_length: int = 3,
    ) -> None:
        if holdout_every < 2:
            raise ValueError(
                f"holdout_every must be >= 2 (1 would hold out "
                f"everything), got {holdout_every}"
            )
        if isinstance(source, TrafficTrace):
            self._events: Iterator[dict] = source.events()
        else:
            self._events = iter(source)
        self.dataset = dataset
        self.holdout_every = holdout_every
        self.min_length = min_length
        #: Eligible sequences seen so far — drives the holdout split.
        self.sequences_seen = 0
        #: Total events consumed across all rounds.
        self.events_consumed = 0
        self._exhausted = False

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def _payload_sequence(self, payload: dict) -> np.ndarray | None:
        """Decode one request payload into an item-id sequence."""
        if "sequence" in payload:
            sequence = np.asarray(payload["sequence"], dtype=np.int64)
            if self.dataset is not None:
                valid = (sequence >= 1) & (sequence <= self.dataset.num_items)
                sequence = sequence[valid]
            return sequence
        if "user" in payload and self.dataset is not None:
            user = int(payload["user"])
            if 0 <= user < self.dataset.num_users:
                return np.asarray(
                    self.dataset.full_sequence(user, split="test"),
                    dtype=np.int64,
                )
        return None

    def take(self, max_events: int) -> StreamBatch:
        """Consume up to ``max_events`` events into one batch."""
        batch = StreamBatch()
        while batch.events < max_events:
            try:
                event = next(self._events)
            except StopIteration:
                self._exhausted = True
                batch.exhausted = True
                break
            batch.events += 1
            self.events_consumed += 1
            for payload in event["requests"]:
                sequence = self._payload_sequence(payload)
                if sequence is None or len(sequence) < self.min_length:
                    batch.skipped += 1
                    continue
                self.sequences_seen += 1
                if self.sequences_seen % self.holdout_every == 0:
                    batch.holdout.append(sequence)
                else:
                    batch.train.append(sequence)
        return batch
