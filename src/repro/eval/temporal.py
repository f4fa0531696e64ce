"""Evaluation under the global temporal-split protocol (extension).

Complements the paper's leave-one-out evaluator: given a log split at
global time cutoffs (:func:`repro.data.splits.temporal_split`), each
post-cutoff user contributes one next-item event — their pre-cutoff
history and their first post-cutoff item.  The model scores the full
vocabulary from the raw history (``score_sequences``); items in the
history are masked as in the leave-one-out protocol.
"""

from __future__ import annotations

import numpy as np

from repro.data.log import InteractionLog
from repro.data.splits import next_item_events
from repro.eval.evaluator import EvaluationResult
from repro.eval.metrics import rank_of_target, ranking_metrics

_BATCH_SIZE = 256


def evaluate_temporal(
    model,
    history: InteractionLog,
    future: InteractionLog,
    num_items: int,
    max_events: int | None = None,
) -> EvaluationResult:
    """Full-ranking HR/NDCG on temporal next-item events.

    ``history``/``future`` must already use the model's item id space
    (ids ``1..num_items``); build them by splitting the *re-indexed*
    training log, or re-index before splitting.  The model must expose
    ``score_sequences(sequences, num_items)``.
    """
    events = next_item_events(history, future)
    if max_events is not None:
        events = events[:max_events]
    if not events:
        raise ValueError("no evaluable temporal events (all users cold?)")

    all_ranks: list[np.ndarray] = []
    for start in range(0, len(events), _BATCH_SIZE):
        chunk = events[start : start + _BATCH_SIZE]
        sequences = [items for __, items, __ in chunk]
        targets = np.asarray([target for __, __, target in chunk])
        scores = np.array(
            model.score_sequences(sequences, num_items), dtype=np.float64
        )
        if scores.shape != (len(chunk), num_items + 1):
            raise ValueError(
                f"score_sequences returned {scores.shape}, expected "
                f"({len(chunk)}, {num_items + 1})"
            )
        scores[:, 0] = -np.inf
        rows = np.arange(len(chunk))
        target_scores = scores[rows, targets].copy()
        for row, (__, items, __t) in enumerate(chunk):
            scores[row, np.unique(items)] = -np.inf
        scores[rows, targets] = target_scores
        all_ranks.append(rank_of_target(scores, targets))

    ranks = np.concatenate(all_ranks)
    return EvaluationResult(
        metrics=ranking_metrics(ranks), ranks=ranks, num_users=len(events)
    )
