"""Batching, padding and negative sampling for sequence training.

Sequences are **left-padded** to the maximum length ``T`` so that the
most recent item always sits at the last position — the position whose
hidden state is the user representation (paper Eq. 13).

Both loaders build their padded matrices by fancy-indexing the
dataset's precomputed views (:func:`repro.data.pipeline.padded_views`)
instead of looping over users per batch.  The ``pipeline`` switch
selects how the *stochastic* part of a batch is produced:

* ``"reference"`` (default) — augmentation and sampling draw from the
  caller's generator one sequence at a time, bit-compatible with the
  original scalar implementation (the golden fixtures pin this path).
* ``"vectorized"`` — augmentation runs in matrix form
  (:mod:`repro.augment.batched`) and all loader randomness moves to a
  dedicated child stream.  Nothing runs concurrently with a loader;
  the child stream is there because the two
  ``tests/golden/*_vectorized.json`` fixtures pin its draws, until
  ROADMAP item 3 re-anchors the goldens.

See ``docs/PERFORMANCE.md``.

The two sequence loaders sample users differently.  A next-item epoch
is **length-bucketed** (:meth:`NextItemBatchLoader.epoch`): the shuffled
users are stably sorted by history length, cut into batches, and the
batches are yielded in a random order, so each batch trains at nearly
its own users' width instead of the longest history among random
users.  Each batch carries a ``weight``, its real positions over the
epoch's mean per batch; the training stages scale the batch's mean
loss by it, so every real position of the epoch still weighs alike.
A contrastive epoch keeps **uniform** batches, because the paper's
in-batch negatives (§3.2, the other 2(N−1) views) should be a random
sample of users, not users of one length.

The models that train on a flat table of rows instead of padded
histories (BPR-MF, NCF, FPMC, Caser, BERT4Rec's Cloze batches) use
:class:`RowBatchLoader`, which has one path and no ``pipeline`` switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.augment.batched import BatchPairSampler, spawn_stream
from repro.augment.compose import PairSampler
from repro.data.pipeline import padded_views, validate_pipeline
from repro.data.preprocessing import SequenceDataset


def _shard_users(
    users: np.ndarray, worker_shard: tuple[int, int] | None
) -> np.ndarray:
    """Deterministic round-robin split of the eligible-user list.

    ``worker_shard=(w, n)`` keeps every n-th user starting at *w* —
    the partition data-parallel training workers draw their private
    micro-batches from.  An empty shard is allowed (more workers than
    eligible users): the worker simply contributes no batches.  The
    global no-eligible-users check runs *before* sharding, so the
    loader's existing error behaviour is unchanged.
    """
    if worker_shard is None:
        return users
    worker, count = worker_shard
    if not 0 <= worker < count:
        raise ValueError(
            f"worker_shard must be (worker, count) with 0 <= worker < "
            f"count, got {worker_shard!r}"
        )
    return users[worker::count]


def pad_left(sequence: np.ndarray, length: int, pad_value: int = 0) -> np.ndarray:
    """Left-pad (or left-truncate) ``sequence`` to exactly ``length``.

    Truncation keeps the *last* ``length`` items, per paper Eq. (7).
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    if len(sequence) >= length:
        return sequence[-length:]
    out = np.full(length, pad_value, dtype=np.int64)
    if len(sequence):
        out[-len(sequence) :] = sequence
    return out


class NegativeSampler:
    """Uniform negative sampling over the item vocabulary.

    Draws ids in ``1..num_items`` that avoid a per-row forbidden item
    (the positive).  Collisions are re-drawn; with vocabularies in the
    thousands a couple of rounds suffice.
    """

    def __init__(self, num_items: int, rng: np.random.Generator) -> None:
        if num_items < 2:
            raise ValueError("need at least 2 items to sample negatives")
        self.num_items = num_items
        self._rng = rng

    def _draw(self, count: int) -> np.ndarray:
        return self._rng.integers(1, self.num_items + 1, size=count)

    def sample(self, positives: np.ndarray) -> np.ndarray:
        """Return one negative per entry of ``positives`` (same shape)."""
        positives = np.asarray(positives)
        negatives = self._draw(positives.size).reshape(positives.shape)
        for __ in range(100):
            clash = negatives == positives
            if not clash.any():
                break
            negatives[clash] = self._draw(int(clash.sum()))
        # Extremely skewed sampling distributions (e.g. popularity
        # weighting where the positive IS the blockbuster) can exhaust
        # the redraw budget; shift the survivors deterministically.
        clash = negatives == positives
        if clash.any():
            negatives[clash] = negatives[clash] % self.num_items + 1
        return negatives


class PopularityNegativeSampler(NegativeSampler):
    """Popularity-weighted negative sampling.

    Draws negatives proportionally to ``count(item)^alpha`` (word2vec's
    classic 0.75 by default).  Harder negatives than uniform: popular
    items the user *didn't* choose are more informative contrasts.

    Parameters
    ----------
    item_counts:
        Training interaction count per item id, length
        ``num_items + 1`` (index 0 = padding, ignored).
    alpha:
        Popularity exponent; 0 recovers uniform sampling.
    smoothing:
        Added to every count so unseen items stay sampleable.
    """

    def __init__(
        self,
        item_counts: np.ndarray,
        rng: np.random.Generator,
        alpha: float = 0.75,
        smoothing: float = 1.0,
    ) -> None:
        item_counts = np.asarray(item_counts, dtype=np.float64)
        if item_counts.ndim != 1 or len(item_counts) < 3:
            raise ValueError(
                "item_counts must be 1-D of length num_items + 1 (>= 3)"
            )
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        super().__init__(len(item_counts) - 1, rng)
        weights = (item_counts[1:] + smoothing) ** alpha
        self._cumulative = np.cumsum(weights / weights.sum())
        self.alpha = alpha

    @classmethod
    def from_sequences(
        cls,
        sequences,
        num_items: int,
        rng: np.random.Generator,
        alpha: float = 0.75,
    ) -> "PopularityNegativeSampler":
        """Build from training sequences (counts computed here)."""
        counts = np.zeros(num_items + 1, dtype=np.float64)
        for sequence in sequences:
            np.add.at(counts, np.asarray(sequence), 1.0)
        return cls(counts, rng, alpha=alpha)

    def _draw(self, count: int) -> np.ndarray:
        draws = self._rng.random(count)
        return np.searchsorted(self._cumulative, draws) + 1


@dataclass
class NextItemBatch:
    """One supervised next-item training batch.

    ``inputs[b, t]`` is the item at step *t* (0 = padding), ``targets``
    the item at step *t+1*, ``negatives`` a sampled non-interacted item,
    and ``mask`` is 1.0 where a real prediction exists.

    ``weight`` is the batch's number of real positions over the mean per
    batch of its epoch.  A loss that averages over the batch's real
    positions and is scaled by ``weight`` (as ``NextItemStage`` and
    ``JointStage`` do) gives every real position of an epoch the same
    weight, as paper Eq. (15) does, however unevenly length-bucketed
    batches split them.
    """

    users: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    negatives: np.ndarray
    mask: np.ndarray
    weight: float = 1.0


class NextItemBatchLoader:
    """Yields length-bucketed :class:`NextItemBatch` epochs from a dataset.

    Batch matrices are fancy-indexed rows of the dataset's precomputed
    padded views — bit-identical to per-batch ``pad_left`` loops but
    built in O(batch) numpy work.  With ``pipeline="vectorized"`` the
    loader additionally moves shuffling and negative sampling onto a
    private child stream (kept for golden compatibility — see the
    module docstring).
    """

    def __init__(
        self,
        dataset: SequenceDataset,
        max_length: int,
        batch_size: int,
        rng: np.random.Generator,
        min_sequence_length: int = 2,
        negative_sampler: NegativeSampler | None = None,
        pipeline: str = "reference",
        obs=None,
        worker_shard: tuple[int, int] | None = None,
    ) -> None:
        self.dataset = dataset
        self.max_length = max_length
        self.batch_size = batch_size
        self.pipeline = validate_pipeline(pipeline)
        self._obs = obs
        self._views = padded_views(dataset, max_length)
        # Real inputs per user, indexed by user id: the bucketing key.
        self._history_lengths = np.count_nonzero(self._views.inputs, axis=1)
        if pipeline == "vectorized":
            # Private stream: the vectorized goldens pin its draws.
            self._rng = spawn_stream(rng)
            if negative_sampler is not None:
                negative_sampler._rng = self._rng
        else:
            self._rng = rng
        self._sampler = (
            negative_sampler
            if negative_sampler is not None
            else NegativeSampler(dataset.num_items, self._rng)
        )
        self._users = np.asarray(
            [
                u
                for u, seq in enumerate(dataset.train_sequences)
                if len(seq) >= min_sequence_length
            ],
            dtype=np.int64,
        )
        if len(self._users) == 0:
            raise ValueError("no user has a long enough training sequence")
        self._users = _shard_users(self._users, worker_shard)
        # The unit of NextItemBatch.weight.
        real_positions = self._history_lengths[self._users].sum()
        self._positions_per_batch = real_positions / max(1, self.num_batches)

    @property
    def users(self) -> np.ndarray:
        """The eligible users this loader draws from (after sharding)."""
        return self._users

    @property
    def rng(self) -> np.random.Generator:
        """The stream every draw comes from; checkpoint it to resume."""
        return self._rng

    @property
    def num_batches(self) -> int:
        return int(np.ceil(len(self._users) / self.batch_size))

    def epoch(self) -> Iterator[NextItemBatch]:
        """One pass over all eligible users in length-bucketed batches.

        The users are permuted, then stably sorted by history length
        (so ties keep their random order) and cut into batches, which
        are yielded in an order drawn from the same generator.  A batch
        holds users of similar length, so its trimmed width ``w`` (its
        longest history) wastes few columns on padding.  Batches of long
        histories hold more real positions; :attr:`NextItemBatch.weight`
        says how many more.
        """
        order = self._rng.permutation(self._users)
        order = order[np.argsort(self._history_lengths[order], kind="stable")]
        starts = np.arange(0, len(order), self.batch_size)
        for start in self._rng.permutation(starts):
            built_at = time.perf_counter()
            batch = self._build(order[start : start + self.batch_size])
            if self._obs is not None:
                self._obs.observe(
                    "data.batch_build_seconds", time.perf_counter() - built_at
                )
            yield batch

    def _build(self, users: np.ndarray) -> NextItemBatch:
        inputs = self._views.inputs[users]
        targets = self._views.targets[users]
        mask = (targets > 0).astype(np.float64)
        negatives = self._sampler.sample(targets)
        # Padded positions carry the pad id (0), never a real item; the
        # masked BCE guarantees they contribute nothing to the loss or
        # gradients either way (asserted in tests/data/test_loaders.py).
        negatives[mask == 0.0] = 0
        weight = self._history_lengths[users].sum() / self._positions_per_batch
        return NextItemBatch(users, inputs, targets, negatives, mask, float(weight))


@dataclass
class ContrastiveBatch:
    """Two augmented views per user, left-padded (paper §3.2.1)."""

    users: np.ndarray
    view_a: np.ndarray
    view_b: np.ndarray


class ContrastiveBatchLoader:
    """Yields :class:`ContrastiveBatch` epochs from augmented sequences.

    ``augmenter`` is any callable ``(sequence, rng) -> (view_a, view_b)``
    — typically :class:`repro.augment.compose.PairSampler`.

    With ``pipeline="vectorized"`` the augmentation stage — the wall-
    time sink of a contrastive epoch — runs in matrix form: a scalar
    ``PairSampler`` is lifted to a
    :class:`~repro.augment.batched.BatchPairSampler` (a prepared
    ``BatchPairSampler`` is also accepted directly), views are produced
    for all rows of a batch in a handful of numpy calls over the
    dataset's precomputed padded matrix, and every random draw comes
    from a private child stream (kept for golden compatibility — see
    the module docstring).  Any other augmenter callable falls back to
    per-row application but still benefits from precomputed padding.
    """

    def __init__(
        self,
        dataset: SequenceDataset,
        augmenter,
        max_length: int,
        batch_size: int,
        rng: np.random.Generator,
        min_sequence_length: int = 3,
        pipeline: str = "reference",
        obs=None,
        worker_shard: tuple[int, int] | None = None,
    ) -> None:
        self.dataset = dataset
        self.augmenter = augmenter
        self.max_length = max_length
        self.batch_size = batch_size
        self.pipeline = validate_pipeline(pipeline)
        self._obs = obs
        self._batched: BatchPairSampler | None = None
        if pipeline == "vectorized":
            self._rng = spawn_stream(rng)
            self._views = padded_views(dataset, max_length)
            if isinstance(augmenter, BatchPairSampler):
                self._batched = augmenter
            elif isinstance(augmenter, PairSampler):
                self._batched = BatchPairSampler.from_scalar(augmenter)
        else:
            self._rng = rng
            self._views = None
        self._users = np.asarray(
            [
                u
                for u, seq in enumerate(dataset.train_sequences)
                if len(seq) >= min_sequence_length
            ],
            dtype=np.int64,
        )
        if len(self._users) == 0:
            raise ValueError("no user has a long enough training sequence")
        self._users = _shard_users(self._users, worker_shard)

    @property
    def users(self) -> np.ndarray:
        """The eligible users this loader draws from (after sharding)."""
        return self._users

    @property
    def rng(self) -> np.random.Generator:
        """The stream every draw comes from; checkpoint it to resume."""
        return self._rng

    @property
    def num_batches(self) -> int:
        """Batches one :meth:`epoch` yields.

        A chunk of fewer than 2 users is skipped (a contrastive batch
        needs an in-batch negative); only the remainder chunk can be.
        """
        full, rest = divmod(len(self._users), self.batch_size)
        return full * (self.batch_size >= 2) + (rest >= 2)

    def epoch(self) -> Iterator[ContrastiveBatch]:
        """One shuffled pass; each user contributes one positive pair."""
        order = self._rng.permutation(self._users)
        for start in range(0, len(order), self.batch_size):
            users = order[start : start + self.batch_size]
            if len(users) < 2:
                continue  # a contrastive batch needs at least one negative
            built_at = time.perf_counter()
            batch = self._build(users)
            if self._obs is not None:
                self._obs.observe(
                    "data.batch_build_seconds", time.perf_counter() - built_at
                )
            yield batch

    def _build(self, users: np.ndarray) -> ContrastiveBatch:
        if self._batched is not None:
            padded = self._views.sequences[users]
            lengths = self._views.lengths[users]
            (view_a, __), (view_b, __) = self._batched(padded, lengths, self._rng)
            return ContrastiveBatch(users, view_a, view_b)
        t = self.max_length
        view_a = np.zeros((len(users), t), dtype=np.int64)
        view_b = np.zeros((len(users), t), dtype=np.int64)
        if self._views is not None:  # vectorized padding, scalar augmenter
            padded, lengths = self._views.sequences[users], self._views.lengths[users]
            rows = ((padded[i, t - lengths[i]:]) for i in range(len(users)))
        else:
            rows = (self.dataset.train_sequences[user][-t:] for user in users)
        for row, seq in enumerate(rows):
            a, b = self.augmenter(seq, self._rng)
            view_a[row] = pad_left(a, t)
            view_b[row] = pad_left(b, t)
        return ContrastiveBatch(users, view_a, view_b)


@dataclass
class RowBatch:
    """Training rows ``(user, context, positive)``, with sampled negatives.

    ``context`` is what a model conditions on besides the user — the
    last ``window`` items before the positive, left-padded (FPMC,
    Caser) — or None (BPR-MF, NCF).  ``negatives`` holds ``k`` draws per
    row in ``np.repeat(positives, k)`` order; a model's whole table
    (:func:`interaction_rows`, :func:`transition_rows`) carries none.
    """

    users: np.ndarray
    positives: np.ndarray
    context: np.ndarray | None = None
    negatives: np.ndarray | None = None

    def take(self, index: np.ndarray) -> "RowBatch":
        """The rows at ``index`` (negatives are drawn per batch, not kept)."""
        context = None if self.context is None else self.context[index]
        return RowBatch(self.users[index], self.positives[index], context)


def _flat_sequences(dataset: SequenceDataset) -> tuple[np.ndarray, np.ndarray]:
    """Every training interaction in user order, and each one's user."""
    lengths = np.fromiter(map(len, dataset.train_sequences), dtype=np.int64)
    if lengths.sum() == 0:
        raise ValueError("dataset has no training interactions")
    flat = np.concatenate(
        [np.asarray(seq, dtype=np.int64) for seq in dataset.train_sequences]
    )
    return flat, np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def interaction_rows(dataset: SequenceDataset) -> RowBatch:
    """One row per training interaction: ``(user, item)``."""
    items, users = _flat_sequences(dataset)
    return RowBatch(users, items)


def transition_rows(dataset: SequenceDataset, window: int) -> RowBatch:
    """One row per transition: ``(user, last window items, next item)``.

    Row order is user-major, then time; ``context[r]`` is
    ``pad_left(sequence[:t], window)`` for the positive ``sequence[t]``.
    """
    items, users = _flat_sequences(dataset)
    starts = np.searchsorted(users, users)  # where each row's sequence begins
    positions = np.flatnonzero(np.arange(len(items)) > starts)
    if len(positions) == 0:
        raise ValueError("dataset has no training transitions")
    offsets = positions[:, None] - window + np.arange(window)[None, :]
    valid = offsets >= starts[positions, None]
    context = np.where(valid, items[np.maximum(offsets, 0)], 0)
    return RowBatch(users[positions], items[positions], context)


class RowBatchLoader:
    """Shuffled batches over a table of ``num_rows`` training rows.

    Each epoch permutes the row indices and ``build(indices)`` turns one
    chunk into a batch.  Rows shard with the sequence loaders' rule
    (:func:`_shard_users`), so ``worker_shard=(w, n)`` keeps every n-th
    row; the permutation comes from ``rng``, and so should every draw
    ``build`` makes, for a checkpoint to capture it.
    """

    def __init__(
        self,
        num_rows: int,
        batch_size: int,
        rng: np.random.Generator,
        build,
        obs=None,
        worker_shard: tuple[int, int] | None = None,
    ) -> None:
        if num_rows == 0:
            raise ValueError("the training-row table is empty")
        self.batch_size = batch_size
        self._rng = rng
        self._build = build
        self._obs = obs
        self._rows = _shard_users(np.arange(num_rows, dtype=np.int64), worker_shard)

    @property
    def rng(self) -> np.random.Generator:
        """The stream the permutation comes from; checkpoint it to resume."""
        return self._rng

    @property
    def num_batches(self) -> int:
        return -(-len(self._rows) // self.batch_size)

    def epoch(self) -> Iterator:
        """One pass over this shard's rows, shuffled."""
        order = self._rng.permutation(self._rows)
        for start in range(0, len(order), self.batch_size):
            built_at = time.perf_counter()
            batch = self._build(order[start : start + self.batch_size])
            if self._obs is not None:
                self._obs.observe(
                    "data.batch_build_seconds", time.perf_counter() - built_at
                )
            yield batch
