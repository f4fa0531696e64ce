"""Preprocessing pipeline (paper §4.1.1–4.1.2).

* 5-core filtering: iteratively discard users and items with fewer than
  five interactions.
* Chronological per-user sequences with contiguous re-indexed ids
  (item id 0 is reserved for padding; the mask token used by the mask
  augmentation is ``num_items + 1``).
* Leave-one-out split: last item per user is the test target, the one
  before it the validation target, the rest is training data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.log import InteractionLog

MIN_CORE = 5


def five_core_filter(log: InteractionLog) -> InteractionLog:
    """Iteratively drop users and items with < ``MIN_CORE`` actions.

    Repeats until a fixed point, exactly as in the paper (following
    Rendle et al. and Zhou et al.).
    """
    current = log
    while True:
        user_counts = np.bincount(current.user_ids, minlength=current.user_ids.max() + 1 if len(current) else 1)
        item_counts = np.bincount(current.item_ids, minlength=current.item_ids.max() + 1 if len(current) else 1)
        keep = (user_counts[current.user_ids] >= MIN_CORE) & (
            item_counts[current.item_ids] >= MIN_CORE
        )
        if keep.all():
            return current
        current = current.select(keep)
        if len(current) == 0:
            return current


def build_sequences(log: InteractionLog) -> tuple[list[np.ndarray], int]:
    """Turn a log into chronological per-user item sequences.

    Users and items are re-indexed contiguously; item ids start at 1 so
    that 0 can serve as the padding id.

    Returns
    -------
    sequences:
        ``sequences[u]`` is the item-id array for (re-indexed) user
        ``u``, sorted by timestamp.
    num_items:
        Size of the re-indexed item vocabulary (ids are ``1..num_items``).
    """
    if len(log) == 0:
        return [], 0
    unique_users, user_index = np.unique(log.user_ids, return_inverse=True)
    unique_items, item_index = np.unique(log.item_ids, return_inverse=True)
    item_ids = item_index + 1  # 0 reserved for padding

    order = np.lexsort((log.timestamps, user_index))
    sorted_users = user_index[order]
    sorted_items = item_ids[order]

    boundaries = np.flatnonzero(np.diff(sorted_users)) + 1
    sequences = np.split(sorted_items, boundaries)
    return [np.asarray(seq, dtype=np.int64) for seq in sequences], len(unique_items)


def leave_one_out_split(
    sequence: np.ndarray,
) -> tuple[np.ndarray, int | None, int | None]:
    """Split one sequence into (train prefix, validation item, test item).

    Sequences shorter than 3 keep everything in training (no targets),
    mirroring common practice.
    """
    sequence = np.asarray(sequence)
    if len(sequence) < 3:
        return sequence, None, None
    return sequence[:-2], int(sequence[-2]), int(sequence[-1])


@dataclass
class SequenceDataset:
    """Per-user sequences with leave-one-out splits.

    Attributes
    ----------
    train_sequences:
        Training prefix for every user (used both for the next-item
        objective and for contrastive augmentation views).
    valid_targets / test_targets:
        Held-out items per user (``None`` when the sequence was too
        short to split).
    num_items:
        Item-vocabulary size; valid item ids are ``1..num_items``.
    name:
        Optional human-readable dataset name.
    """

    train_sequences: list[np.ndarray]
    valid_targets: list[int | None]
    test_targets: list[int | None]
    num_items: int
    name: str = "dataset"
    statistics: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_log(
        cls,
        log: InteractionLog,
        name: str = "dataset",
    ) -> "SequenceDataset":
        """Apply 5-core filtering, sequence building and splitting."""
        filtered = five_core_filter(log)
        sequences, num_items = build_sequences(filtered)
        train, valid, test = [], [], []
        for seq in sequences:
            prefix, valid_item, test_item = leave_one_out_split(seq)
            train.append(prefix)
            valid.append(valid_item)
            test.append(test_item)
        return cls(
            train_sequences=train,
            valid_targets=valid,
            test_targets=test,
            num_items=num_items,
            name=name,
            statistics=filtered.statistics(),
        )

    @property
    def num_users(self) -> int:
        return len(self.train_sequences)

    @property
    def mask_token(self) -> int:
        """Item id of the ``[mask]`` token used by the mask augmentation."""
        return self.num_items + 1

    @property
    def vocab_size(self) -> int:
        """Embedding-table size: items ``1..num_items`` + padding 0 + [mask]."""
        return self.num_items + 2

    def evaluation_users(self, split: str = "test") -> np.ndarray:
        """Indices of users that have a held-out target for ``split``."""
        targets = self.test_targets if split == "test" else self.valid_targets
        return np.asarray(
            [u for u, t in enumerate(targets) if t is not None], dtype=np.int64
        )

    def full_sequence(self, user: int, split: str = "test") -> np.ndarray:
        """Model input for evaluating ``user`` on ``split``.

        For validation this is the training prefix; for test it is the
        prefix plus the validation item (the paper evaluates the test
        item given everything before it).
        """
        prefix = self.train_sequences[user]
        if split == "valid":
            return prefix
        valid_item = self.valid_targets[user]
        if valid_item is None:
            return prefix
        return np.concatenate([prefix, [valid_item]])

    def seen_items(self, user: int) -> np.ndarray:
        """All items the user has interacted with before the test item."""
        parts = [self.train_sequences[user]]
        if self.valid_targets[user] is not None:
            parts.append(np.asarray([self.valid_targets[user]]))
        return np.unique(np.concatenate(parts)) if parts else np.asarray([], dtype=np.int64)

    def subsample_users(self, fraction: float, seed: int = 0) -> "SequenceDataset":
        """Return a copy keeping a random ``fraction`` of users.

        Used by the data-sparsity experiment (Figure 6): the *training*
        population shrinks while the item vocabulary stays fixed.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        rng = np.random.default_rng(seed)
        keep = rng.permutation(self.num_users)[: max(1, int(round(self.num_users * fraction)))]
        keep.sort()
        return SequenceDataset(
            train_sequences=[self.train_sequences[u] for u in keep],
            valid_targets=[self.valid_targets[u] for u in keep],
            test_targets=[self.test_targets[u] for u in keep],
            num_items=self.num_items,
            name=f"{self.name}@{fraction:.0%}",
            statistics=dict(self.statistics),
        )
