"""Batched top-k recommendation engine.

The training side of the repo produces a checkpointed encoder; this
module turns it into something that can serve traffic.  Every servable
model scores a user the way the paper does (Eq. 13/15): one sequence
representation times the item embeddings — ``encode_sequences`` +
``item_embedding_matrix`` — and every request takes the same path,
:meth:`RecommendationEngine.recommend_batch`:
admit → cache lookup → encode → cache store → retrieve → fallback → respond.

* **Precomputed item matrix** — the ``(num_items + 1, d)`` scoring
  matrix is materialized once at construction; each request then costs
  one dense matvec instead of a walk through the embedding table.
* **Micro-batched encoding** — user representations are computed in
  batches of ``max_batch_size`` sequences; requests in one call that
  share a history are encoded once.
* **Representation cache** — an LRU keyed by the exact item-id
  sequence; repeat visitors skip the Transformer forward entirely.
* **Pluggable retrieval** — candidate scoring and top-k selection go
  through a :class:`repro.retrieval.ItemIndex`.  The default
  :class:`~repro.retrieval.exact.ExactIndex` reproduces the dense
  matmul + partial-sort path bit-for-bit; ``index="ivf"`` /
  ``"ivf_pq"`` swap in sub-linear ANN retrieval with ``nprobe`` /
  ``rerank`` exactness knobs (see ``docs/RETRIEVAL.md``).  Selection
  still flows through the shared
  :func:`repro.eval.topk.top_k_indices`, so served lists match the
  evaluation protocol bit-for-bit.
* **Metrics** — every stage is timed into
  :class:`repro.serve.metrics.ServingMetrics`.
* **Resilience** — a :class:`~repro.serve.resilience.ResiliencePolicy`
  (on by default) adds per-request deadlines, a circuit breaker around
  encoder scoring, and a degraded-mode fallback chain: exact-sequence
  representation cache → global popularity.  Fallback answers are
  tagged ``degraded`` with a per-tier counter.
* **One error rule** — a request that cannot be served at all
  (malformed, deadline spent) is recorded per item with a
  machine-readable reason code and its neighbours are still served;
  ``on_error="raise"`` then raises the first recorded error in request
  order (:func:`raise_first_error`), ``"report"`` returns them in place.
* **Hot reload** — :meth:`swap_model` atomically swaps in new weights
  from a checkpoint archive: checksum-verified load, self-check probe,
  generation counter bump, representation-cache invalidation, and
  rollback to the previous weights on any failure.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.eval.topk import top_k_indices
from repro.models.base import SequenceRecommender
from repro.nn.module import Module
from repro.nn.serialization import CheckpointError, load_into
from repro.retrieval import (
    ExactIndex,
    IndexMismatchError,
    ItemIndex,
    make_index,
)
from repro.retrieval.exact import apply_exclusions
from repro.runtime.checkpointing import load_model_state
from repro.runtime.faults import FaultInjector
from repro.serve.metrics import ServingMetrics
from repro.serve.requests import Recommendation, RecRequest, RequestError
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_STATE_CODES,
    REASON_BAD_REQUEST,
    REASON_DEADLINE,
    DeadlineExceeded,
    PopularityFallback,
    ResilienceConfig,
    ResiliencePolicy,
)

#: Sentinel: "build the default resilience policy" (pass ``None`` to
#: run the engine without deadlines/breaker/fallback, as PR 2 did).
_DEFAULT_RESILIENCE = object()

#: Counters pre-registered so ``/metrics`` shows the resilience schema
#: before the first incident.
_RESILIENCE_COUNTERS = (
    "requests_degraded",
    "fallback_cache",
    "fallback_popularity",
    "deadline_exceeded",
    "encode_errors",
    "breaker_transitions",
    "model_swaps",
    "model_swap_failures",
    "model_swap_rollbacks",
)

#: Retrieval-work counters pre-registered so ``/metrics`` exposes the
#: index schema even while every request is served by the exact path.
_INDEX_COUNTERS = (
    "index_clusters_probed",
    "index_candidates_scored",
    "index_reranked",
)


class ModelSwapError(RuntimeError):
    """A hot model reload failed; the previous weights keep serving."""


def sequence_key(sequence: np.ndarray) -> bytes:
    """Exact cache key for an item-id sequence."""
    return np.asarray(sequence, dtype=np.int64).tobytes()


class LRUCache:
    """A dict with least-recently-used eviction (maxsize bounded)."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[bytes, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def get(self, key: bytes) -> np.ndarray | None:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: bytes, value: np.ndarray) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


def _require_servable(model) -> None:
    """The one backend needs a representation and an item matrix."""
    if not isinstance(model, SequenceRecommender):
        raise TypeError(
            f"{type(model).__name__} does not expose the representation "
            f"API (encode_sequences + item_embedding_matrix); it cannot "
            f"be served"
        )


def raise_first_error(results: list[Recommendation]) -> None:
    """The ``on_error="raise"`` rule: first recorded error, request order."""
    for result in results:
        if result.error == REASON_DEADLINE:
            raise DeadlineExceeded(result.detail)
        if result.error is not None:
            raise RequestError(result.detail)


#: An unserved slot's candidates: no items, no scores.
_NOTHING = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


class _Slot:
    """One request's state, filled in place by the engine's stages.

    ``error`` makes every later stage skip the slot; ``row`` is the user
    representation (``None``: a popularity answer); ``cached``: it cost
    this request no encoder forward; ``tier``: ``None`` (full quality),
    ``"cache"`` or ``"popularity"``; ``picked``: ``(items, scores)``.
    """

    __slots__ = (
        "request", "sequence", "exclusion", "deadline", "key",
        "row", "cached", "tier", "error", "picked",
    )

    def __init__(self, request: RecRequest) -> None:
        self.request = request
        self.sequence = self.exclusion = self.deadline = self.key = None
        self.row = self.tier = self.error = None
        self.cached = False
        self.picked = _NOTHING


class RecommendationEngine:
    """Serve top-k recommendations from a fitted (or checkpointed) model.

    Parameters
    ----------
    model:
        A sequential recommender exposing the representation API
        (``encode_sequences`` + ``item_embedding_matrix``); anything
        else is rejected with a ``TypeError``.
    dataset:
        Supplies interaction histories for user-id requests and the
        catalogue size.
    max_batch_size:
        Micro-batch size for encoding.
    cache_size:
        LRU capacity (number of distinct sequences) of the
        representation cache.
    split:
        Which history to serve user-id requests from (mirrors the
        evaluation protocol's ``split`` semantics; default ``"test"``,
        i.e. the full known history).
    resilience:
        The resilience layer: a
        :class:`~repro.serve.resilience.ResilienceConfig` (or a
        prebuilt :class:`~repro.serve.resilience.ResiliencePolicy`,
        e.g. with a fake clock in tests).  Defaults to the standard
        policy; pass ``None`` to disable deadlines, the encoder
        circuit breaker and the fallback chain entirely.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` hooked
        into the encoder forward (``encode`` / ``encode_slow`` sites)
        for chaos testing.
    index:
        The retrieval index serving candidate scoring + top-k: a
        :class:`repro.retrieval.ItemIndex` instance (built indexes are
        checksum-verified against the live model's matrix, unbuilt
        ones are built from it), a registered kind name
        (``"exact"``, ``"ivf"``, ``"ivf_pq"``), or ``None`` for the
        default :class:`~repro.retrieval.exact.ExactIndex` — which is
        bit-identical to the historical dense path.
    """

    def __init__(
        self,
        model,
        dataset: SequenceDataset,
        max_batch_size: int = 256,
        cache_size: int = 4096,
        split: str = "test",
        resilience=_DEFAULT_RESILIENCE,
        faults: FaultInjector | None = None,
        index: "ItemIndex | str | None" = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        _require_servable(model)
        self.model = model
        self.dataset = dataset
        self.max_batch_size = max_batch_size
        self.split = split
        self.metrics = ServingMetrics()
        self.cache = LRUCache(cache_size)
        self.faults = faults
        #: Optional :class:`repro.obs.RunObserver` (set by the caller);
        #: breaker transitions and model swaps become structured events.
        self.observer = None
        #: Weight generation counter, bumped by every successful
        #: :meth:`swap_model`; stamped onto every response.
        self.model_version = 1
        #: Source of the weights currently serving (set by
        #: :meth:`from_checkpoint` / :meth:`swap_model`); the default
        #: reload target of ``POST /admin/reload``.
        self.checkpoint_path: str | None = None
        self._popularity_fallback: PopularityFallback | None = None

        if resilience is None or resilience is False:
            self.policy: ResiliencePolicy | None = None
        elif isinstance(resilience, ResiliencePolicy):
            self.policy = resilience
        elif isinstance(resilience, ResilienceConfig):
            self.policy = ResiliencePolicy(resilience)
        else:
            self.policy = ResiliencePolicy()
        if self.policy is not None:
            self.metrics.touch(*_RESILIENCE_COUNTERS)
            self.metrics.set_gauge(
                "breaker_state", BREAKER_STATE_CODES[self.policy.breaker.state]
            )
            self.metrics.set_gauge("model_version", self.model_version)
            self.policy.breaker.on_transition = self._on_breaker_transition

        self.index: ItemIndex = self._adopt_index(index, self._live_matrix())
        self.metrics.touch(*_INDEX_COUNTERS)

        if isinstance(model, Module):
            model.eval()

    @staticmethod
    def _adopt_index(index, matrix: np.ndarray) -> ItemIndex:
        """Resolve the ``index`` constructor argument against ``matrix``.

        A prebuilt index (e.g. loaded from a ``repro index`` artifact)
        must match the live model's matrix exactly — serving a stale
        artifact would silently recommend from a different embedding
        space, so a dtype, shape or value mismatch raises
        :class:`~repro.retrieval.IndexMismatchError` instead.  An
        artifact written when models served in float64 holds a float64
        matrix, and its error says so.
        """
        if index is None:
            return ExactIndex().build(matrix)
        if isinstance(index, str):
            return make_index(index).build(matrix)
        if not isinstance(index, ItemIndex):
            raise TypeError(
                f"index must be an ItemIndex, a kind name or None, "
                f"got {type(index).__name__}"
            )
        if not index.is_built:
            return index.build(matrix)
        if index.matrix.dtype != matrix.dtype:
            raise IndexMismatchError(
                f"prebuilt {index.kind!r} index holds a {index.matrix.dtype} "
                f"item matrix but the model serves {matrix.dtype}; rebuild "
                f"the artifact with 'repro index' from the serving checkpoint"
            )
        if (
            index.num_rows != matrix.shape[0]
            or index.dim != matrix.shape[1]
            or not np.array_equal(index.matrix, matrix)
        ):
            raise IndexMismatchError(
                f"prebuilt {index.kind!r} index covers a "
                f"({index.num_rows}, {index.dim}) matrix that differs from "
                f"the live model's ({matrix.shape[0]}, {matrix.shape[1]}) "
                f"one; rebuild the artifact with 'repro index' from the "
                f"serving checkpoint"
            )
        return index

    def _live_matrix(self) -> np.ndarray:
        """The live model's contiguous ``(num_items + 1, d)`` matrix."""
        return np.ascontiguousarray(
            self.model.item_embedding_matrix(self.dataset.num_items)
        )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: str | os.PathLike,
        model,
        dataset: SequenceDataset,
        **engine_kwargs,
    ) -> "RecommendationEngine":
        """Load weights from a checkpoint and wrap them in an engine.

        ``checkpoint`` is either a :class:`~repro.runtime.checkpointing.
        CheckpointManager` directory (the newest *valid* archive is
        used, skipping corrupt ones) or a single ``.npz`` archive: a
        training checkpoint, a :func:`repro.nn.checkpoint.save_checkpoint`
        file, a :class:`~repro.online.versions.ModelVersionStore` version
        or a bare state dict, each read (checksum-verified) by
        :func:`repro.nn.serialization.read_archive`.  ``model`` must be
        built with the configuration the checkpoint was trained with
        (use :func:`repro.models.registry.build_model`); a mismatch
        raises :class:`~repro.nn.serialization.CheckpointError`.

        The model serves in its own precision (float32); a float64
        checkpoint loads rounded once.
        """
        _require_servable(model)
        checkpoint = os.fspath(checkpoint)
        state, __ = load_model_state(checkpoint)
        load_into(model, state, checkpoint)
        engine = cls(model, dataset, **engine_kwargs)
        engine.checkpoint_path = checkpoint
        return engine

    # ------------------------------------------------------------------
    # Hot model reload
    # ------------------------------------------------------------------
    def swap_model(self, checkpoint: str | os.PathLike) -> dict:
        """Atomically swap in new weights from ``checkpoint``.

        The swap is crash-safe against bad checkpoints at every stage:

        1. the archive is checksum-verified and parsed *before* the
           live model is touched (a corrupt file never reaches the
           weights);
        2. a mismatched state dict restores the previous weights and
           raises :class:`CheckpointError`;
        3. the swapped model must pass a self-check — one probe
           sequence encoded and scored through the rebuilt index,
           finite values, correct shapes — or the previous weights
           (and live index) are kept and :class:`ModelSwapError`
           raised.

        On success the retrieval index is rebuilt from the new item
        matrix (same hyperparameters, built off to the side and swapped
        as one reference so requests never see a half-built index), the
        representation cache invalidated, and :attr:`model_version`
        bumped — the
        generation counter lets clients observe which weights answered
        (``"model_version"`` in responses, ``/health``, metrics).

        Not safe against concurrent :meth:`recommend_batch` calls; the
        HTTP server serializes reloads with requests behind its lock.

        Returns ``{"model_version", "step", "checkpoint"}``.
        """
        swap_started = time.perf_counter()
        checkpoint = os.fspath(checkpoint)
        try:
            state, step = load_model_state(checkpoint)
        except CheckpointError:
            self.metrics.increment("model_swap_failures")
            self._obs_event("model_swap_failed", checkpoint=checkpoint,
                            stage="load", model_version=self.model_version)
            raise

        previous = {
            name: np.copy(values)
            for name, values in self.model.state_dict().items()
        }
        try:
            load_into(self.model, state, checkpoint)
        except CheckpointError:
            # load_state_dict may have partially applied; restore.
            self.model.load_state_dict(previous)
            self.metrics.increment("model_swap_failures")
            self._obs_event("model_swap_failed", checkpoint=checkpoint,
                            stage="state_dict", model_version=self.model_version)
            raise

        try:
            # Rebuild off to the side with the same hyperparameters;
            # the live index keeps serving until the publish below.
            rebuild_started = time.perf_counter()
            new_index = self.index.rebuild(self._live_matrix())
            rebuild_s = time.perf_counter() - rebuild_started
            self._self_check(new_index)
        except Exception as error:
            self.model.load_state_dict(previous)
            self.metrics.increment("model_swap_failures")
            self.metrics.increment("model_swap_rollbacks")
            self._obs_event("model_swap_rollback", checkpoint=checkpoint,
                            model_version=self.model_version)
            raise ModelSwapError(
                f"model swap from {checkpoint} failed its self-check "
                f"(previous weights restored): {error}"
            ) from error

        # Publish: everything below is cheap pointer/counter work, so a
        # request never observes new weights with a stale index or
        # cache.
        self.index = new_index
        self.invalidate_cache()
        self.model_version += 1
        self.checkpoint_path = checkpoint
        self.metrics.increment("model_swaps")
        self.metrics.set_gauge("model_version", self.model_version)
        self._obs_event(
            "model_swap",
            checkpoint=checkpoint,
            step=step,
            model_version=self.model_version,
            rebuild_s=rebuild_s,
            swap_s=time.perf_counter() - swap_started,
        )
        return {
            "model_version": self.model_version,
            "step": step,
            "checkpoint": checkpoint,
        }

    def _probe_sequence(self) -> np.ndarray:
        """A real user history (fallback: item 1) for self-check probes."""
        for user in range(min(self.dataset.num_users, 4)):
            sequence = np.asarray(
                self.dataset.full_sequence(user, split=self.split)
            )
            if sequence.size:
                return sequence
        return np.asarray([min(1, self.dataset.num_items)], dtype=np.int64)

    def _self_check(self, index: ItemIndex) -> None:
        """Probe the (swapped) model end to end; raise on anything off."""
        sequence = self._probe_sequence()
        representation = np.asarray(self.model.encode_sequences([sequence]))
        if (
            representation.ndim != 2
            or representation.shape[1] != index.dim
            or not np.all(np.isfinite(representation))
        ):
            raise ModelSwapError(
                "probe produced a non-finite or misshapen representation"
            )
        scores = index.score(representation)
        if scores.shape[-1] != self.dataset.num_items + 1 or not np.all(
            np.isfinite(scores)
        ):
            raise ModelSwapError(
                "probe produced non-finite or misshapen scores"
            )

    def _obs_event(self, name: str, **fields) -> None:
        if self.observer is not None:
            self.observer.event(name, **fields)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.metrics.increment("breaker_transitions")
        self.metrics.set_gauge("breaker_state", BREAKER_STATE_CODES[new])
        self._obs_event("breaker_transition", old=old, new=new)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop every cached representation (after a weight update)."""
        self.cache.clear()

    def close(self) -> None:
        """Release engine resources: a no-op, kept so every owner of an
        engine (the CLI, the benchmark harness) shuts it down one way."""

    # ------------------------------------------------------------------
    # Serving: one slot per request, walked through the stages below.
    # No stage touches more than one of cache, model and index.
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: int | None = None,
        sequence=None,
        k: int = 10,
        exclude_seen: bool = True,
    ) -> Recommendation:
        """Serve a single request (convenience over :meth:`recommend_batch`)."""
        request = RecRequest(
            user=user, sequence=sequence, k=k, exclude_seen=exclude_seen
        )
        return self.recommend_batch([request])[0]

    def recommend_batch(
        self,
        requests: list[RecRequest],
        started: float | None = None,
        on_error: str = "raise",
    ) -> list[Recommendation]:
        """Serve many requests at once: dedupe, encode, score, select.

        ``started`` anchors deadline budgets (monotonic clock) at the
        moment the request entered the system — pass the HTTP arrival
        time so queueing counts against the budget; defaults to now.

        A request that cannot be served (malformed, deadline spent)
        never fails its neighbours: it comes back as a per-item
        :class:`~repro.serve.requests.Recommendation` carrying the
        reason code.  ``on_error="report"`` returns those in place;
        ``"raise"`` (default) serves the batch and then raises the
        first of them in request order
        (:class:`~repro.serve.requests.RequestError` /
        :class:`~repro.serve.resilience.DeadlineExceeded`).
        """
        if on_error not in ("raise", "report"):
            raise ValueError(f"on_error must be 'raise' or 'report', got {on_error!r}")
        if not requests:
            return []
        if started is None:
            clock = self.policy.clock if self.policy is not None else time.monotonic
            started = clock()
        with self.metrics.time_stage("total"):
            slots = self._admit(requests, started)
            self._cache_lookup(slots)
            self._encode_misses(slots)
            self._cache_store(slots)
            self._retrieve(slots)
            with self.metrics.time_stage("topk"):
                self._fallback(slots)
                results = self._respond(slots)
        self.metrics.increment("requests", len(requests))
        self.metrics.increment("batches")
        if on_error == "raise":
            raise_first_error(results)
        return results

    def _admit(self, requests: list[RecRequest], started: float) -> list[_Slot]:
        """Request → slot: validate, resolve the history, start the deadline.

        Of the shared state it writes only the ``deadline_exceeded`` counter
        (a spent budget, like an unknown user or item, is the slot's error).
        """
        dataset = self.dataset
        slots = [_Slot(request) for request in requests]
        with self.metrics.time_stage("resolve"):
            for request, slot in zip(requests, slots):
                user = request.user
                if user is not None:
                    if not 0 <= user < dataset.num_users:
                        slot.error = (
                            REASON_BAD_REQUEST,
                            f"user {user} out of range [0, {dataset.num_users})",
                        )
                        continue
                    slot.sequence = np.asarray(
                        dataset.full_sequence(user, split=self.split)
                    )
                    if request.exclude_seen:
                        slot.exclusion = dataset.seen_items(user)
                else:
                    items = request.sequence
                    if min(items) < 1 or max(items) > dataset.num_items:
                        slot.error = (
                            REASON_BAD_REQUEST,
                            f"sequence item ids must be in [1, {dataset.num_items}]"
                            " (0 is padding)",
                        )
                        continue
                    slot.sequence = np.asarray(items, dtype=np.int64)
                    if request.exclude_seen:
                        slot.exclusion = np.unique(slot.sequence)
        for slot in slots:
            if self.policy is not None and slot.error is None:
                slot.deadline = self.policy.deadline_for(slot.request, started)
                if slot.deadline is not None and slot.deadline.expired():
                    self.metrics.increment("deadline_exceeded")
                    slot.error = (
                        REASON_DEADLINE,
                        "deadline expired before scoring started "
                        f"(budget {slot.request.deadline_ms or self.policy.config.default_deadline_ms:g}ms)",
                    )
        return slots

    def _cache_lookup(self, slots: list[_Slot]) -> None:
        """The only reader of ``self.cache`` (a ``get`` moves its LRU order).

        A miss whose sequence an earlier slot already missed is coalesced
        with it: ``cached``, counted as a hit, row from ``_encode_misses``.
        """
        missed: set[bytes] = set()
        for slot in slots:
            if slot.error is not None:
                continue
            slot.key = sequence_key(slot.sequence)
            slot.row = self.cache.get(slot.key)
            if slot.row is not None:
                slot.cached = True
            elif slot.key in missed:
                slot.cached = True
                self.metrics.increment("coalesced_requests")
            else:
                missed.add(slot.key)
            self.metrics.record_cache(slot.cached)

    def _encode_misses(self, slots: list[_Slot]) -> None:
        """The only caller of the encoder: one row per distinct missing sequence.

        Rows go onto every slot sharing the sequence and stay there, so a
        ``put`` evicting an earlier key of the same batch (cache smaller
        than the batch) loses nothing.  With a policy, encoding sits
        behind the circuit breaker and each request's deadline budget; a
        slot refused, unable to afford or failing a forward ends without
        a row, ``tier = "popularity"``.  Writes the breaker, the
        encode-cost estimate, the ``encode`` histogram, the tier counters.
        """
        policy = self.policy
        hits = [slot for slot in slots if slot.row is not None]
        groups: dict[bytes, list[_Slot]] = {}
        for slot in slots:
            if slot.row is None and slot.error is None:
                groups.setdefault(slot.key, []).append(slot)
        # May the encoder run?  Breaker first (one gate per batch: a half-open
        # probe admits one micro-batched attempt), then, per distinct
        # sequence, the deadline economics of the requests wanting it.
        misses = list(groups.values())
        if policy is not None and misses:
            gate = policy.breaker.allow()
            misses = [
                group
                for group in misses
                if gate
                and not all(policy.encode_would_blow(slot.deadline) for slot in group)
            ]

        if misses:
            encoded_count = 0
            with self.metrics.time_stage("encode"):
                for start in range(0, len(misses), self.max_batch_size):
                    chunk = misses[start : start + self.max_batch_size]
                    t0 = time.perf_counter()
                    try:
                        encoded = self._encode([group[0].sequence for group in chunk])
                    except Exception:
                        latency = time.perf_counter() - t0
                        self.metrics.increment("encode_errors")
                        if policy is None:
                            raise
                        policy.record_encode(False, latency)
                        continue
                    if policy is not None:
                        policy.record_encode(True, time.perf_counter() - t0)
                    for group, row in zip(chunk, encoded):
                        for slot in group:
                            slot.row = row
                    encoded_count += len(chunk)
            self.metrics.increment("sequences_encoded", encoded_count)

        # Under an open (or probing) breaker the whole batch runs in
        # degraded mode: cache hits are tier-1 fallback answers.
        if policy is not None and policy.breaker.state != BREAKER_CLOSED:
            for slot in hits:
                slot.tier = "cache"
        for slot in slots:
            if slot.row is None and slot.error is None:
                slot.tier = "popularity"
            if slot.tier is not None:
                self.metrics.increment("requests_degraded")
                self.metrics.increment(f"fallback_{slot.tier}")

    def _encode(self, sequences: list[np.ndarray]) -> np.ndarray:
        """One micro-batch through the model (chaos fault sites live here)."""
        if self.faults is not None:
            self.faults.on_encode()
            delay = self.faults.encode_delay()
            if delay > 0.0:
                time.sleep(delay)
        return np.asarray(self.model.encode_sequences(sequences))

    def _cache_store(self, slots: list[_Slot]) -> None:
        """The only writer of ``self.cache``: rows this call encoded."""
        for slot in slots:
            if slot.row is not None and not slot.cached:
                self.cache.put(slot.key, slot.row)

    def _retrieve(self, slots: list[_Slot]) -> None:
        """The only caller of ``self.index.search``: every slot that has a row."""
        served = [slot for slot in slots if slot.row is not None]
        if not served:
            return
        queries = np.stack([slot.row for slot in served])
        with self.metrics.time_stage("score"):
            found = self.index.search(
                queries,
                min(max(slot.request.k for slot in served), self.index.num_rows),
                exclude=[slot.exclusion for slot in served],
            )
        stats = found.stats
        self.metrics.increment("items_scored", stats.candidates_scored)
        self.metrics.increment("index_candidates_scored", stats.candidates_scored)
        self.metrics.increment("index_clusters_probed", stats.clusters_probed)
        self.metrics.increment("index_reranked", stats.reranked)
        for slot, items, scores in zip(served, found.items, found.scores):
            slot.picked = (items, scores)

    def _fallback(self, slots: list[_Slot]) -> None:
        """Popularity slots share one score row (built on first use): mask + top-k."""
        popular = [slot for slot in slots if slot.tier == "popularity"]
        if not popular:
            return
        if self._popularity_fallback is None:
            self._popularity_fallback = PopularityFallback(self.dataset)
        scores = np.tile(self._popularity_fallback.score_row(), (len(popular), 1))
        self.metrics.increment("items_scored", scores.size)
        apply_exclusions(scores, [slot.exclusion for slot in popular])
        top = top_k_indices(
            scores, min(max(slot.request.k for slot in popular), scores.shape[1])
        )
        for j, slot in enumerate(popular):
            slot.picked = (top[j], scores[j, top[j]])

    def _respond(self, slots: list[_Slot]) -> list[Recommendation]:
        """Slot → :class:`Recommendation`: its finite top ``k``, or its error."""
        results = []
        for slot in slots:
            items, scores = slot.picked
            finite = np.isfinite(scores)
            reason, detail = slot.error or (None, None)
            results.append(Recommendation(
                items=items[finite][: slot.request.k],
                scores=scores[finite][: slot.request.k],
                request=slot.request,
                cached=slot.cached,
                degraded=slot.tier is not None,
                fallback=slot.tier,
                error=reason,
                detail=detail,
                model_version=self.model_version,
            ))
        return results
