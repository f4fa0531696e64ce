"""Batched top-k recommendation engine.

The training side of the repo produces a checkpointed encoder; this
module turns it into something that can serve traffic.  Every servable
model scores a user the way the paper does (Eq. 13/15): one sequence
representation times the item embeddings — ``encode_sequences`` +
``item_embedding_matrix`` — and every request takes the same path,
:meth:`RecommendationEngine.recommend_batch`:
resolve → cache → encode → score → topk.

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
  from a PR-1 checkpoint: checksum-verified load, self-check probe,
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
from repro.nn.serialization import CheckpointError
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
    if not (
        hasattr(model, "encode_sequences")
        and hasattr(model, "item_embedding_matrix")
    ):
        raise TypeError(
            f"{type(model).__name__} does not expose the representation "
            f"API (encode_sequences + item_embedding_matrix); it cannot "
            f"be served"
        )


def _load_into(model, state: dict, checkpoint: str) -> None:
    """``model.load_state_dict(state)``; a misfit names the checkpoint."""
    try:
        model.load_state_dict(state)
    except Exception as error:
        raise CheckpointError(
            f"{checkpoint}: checkpoint does not fit this model "
            f"(was it trained with a different configuration?): {error}"
        ) from error


def raise_first_error(results: list[Recommendation]) -> None:
    """The ``on_error="raise"`` rule: first recorded error, request order."""
    for result in results:
        if result.error == REASON_DEADLINE:
            raise DeadlineExceeded(result.detail)
        if result.error is not None:
            raise RequestError(result.detail)


class EngineFacade:
    """The request entry points both engine flavours share.

    A flavour supplies ``policy`` and ``_serve_batch(requests, started)``
    — which answers *every* request, recording the unservable ones as
    per-item errors — and inherits the one way in.
    """

    def recommend(
        self,
        user: int | None = None,
        sequence=None,
        k: int = 10,
        exclude_seen: bool = True,
        deadline_ms: float | None = None,
    ) -> Recommendation:
        """Serve a single request (convenience over :meth:`recommend_batch`)."""
        request = RecRequest(
            user=user,
            sequence=sequence,
            k=k,
            exclude_seen=exclude_seen,
            deadline_ms=deadline_ms,
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
        results = self._serve_batch(requests, started)
        if on_error == "raise":
            raise_first_error(results)
        return results


class RecommendationEngine(EngineFacade):
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
    metrics:
        Optionally share a :class:`ServingMetrics` across engines.
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
    observer:
        Optional :class:`repro.obs.RunObserver`; breaker transitions
        and model swaps are emitted as structured events.
    index:
        The retrieval index serving candidate scoring + top-k: a
        :class:`repro.retrieval.ItemIndex` instance (built indexes are
        checksum-verified against the live model's matrix, unbuilt
        ones are built from it), a registered kind name
        (``"exact"``, ``"ivf"``, ``"ivf_pq"``), or ``None`` for the
        default :class:`~repro.retrieval.exact.ExactIndex` — which is
        bit-identical to the historical dense path.
    """

    #: Single-process engines are not safe for concurrent scoring; the
    #: HTTP server serializes requests behind one lock unless an engine
    #: (e.g. :class:`repro.serve.workers.ShardedEngine`) flips this.
    thread_safe = False

    def __init__(
        self,
        model,
        dataset: SequenceDataset,
        max_batch_size: int = 256,
        cache_size: int = 4096,
        split: str = "test",
        metrics: ServingMetrics | None = None,
        resilience=_DEFAULT_RESILIENCE,
        faults: FaultInjector | None = None,
        observer=None,
        index: "ItemIndex | str | None" = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        _require_servable(model)
        self.model = model
        self.dataset = dataset
        self.max_batch_size = max_batch_size
        self.split = split
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.cache = LRUCache(cache_size)
        self.faults = faults
        self.observer = observer
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

        if hasattr(model, "eval"):
            model.eval()

    @staticmethod
    def _adopt_index(index, matrix: np.ndarray) -> ItemIndex:
        """Resolve the ``index`` constructor argument against ``matrix``.

        A prebuilt index (e.g. loaded from a ``repro index`` artifact)
        must match the live model's matrix exactly — serving a stale
        artifact would silently recommend from a different embedding
        space, so a shape or checksum mismatch raises
        :class:`~repro.retrieval.IndexMismatchError` instead.
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
        if (
            index.num_rows != matrix.shape[0]
            or index.dim != matrix.shape[1]
            or not np.array_equal(index.matrix, matrix)
        ):
            raise IndexMismatchError(
                f"prebuilt {index.kind!r} index covers a "
                f"({index.num_rows}, {index.dim}) {index.matrix.dtype} "
                f"matrix but the live model produces "
                f"({matrix.shape[0]}, {matrix.shape[1]}) {matrix.dtype}; "
                f"rebuild the artifact with 'repro index' from the "
                f"serving checkpoint and dtype"
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
        dtype=None,
        **engine_kwargs,
    ) -> "RecommendationEngine":
        """Load weights from a PR-1 checkpoint and wrap them in an engine.

        ``checkpoint`` is either a :class:`~repro.runtime.checkpointing.
        CheckpointManager` directory (the newest *valid* archive is
        used, skipping corrupt ones) or a single ``.npz`` archive
        written by ``repro.nn.checkpoint.save_checkpoint`` /
        ``repro.runtime``.  ``model`` must be built with the same
        configuration the checkpoint was trained with (use
        :func:`repro.models.registry.build_model`); a mismatch raises
        :class:`~repro.nn.serialization.CheckpointError`.

        ``dtype`` selects the serving precision ("float32" roughly
        doubles scoring throughput; see docs/PERFORMANCE.md).  When
        omitted, the model adopts the checkpoint's own dtype, so a
        float32-trained checkpoint serves in float32 without flags.
        """
        _require_servable(model)
        checkpoint = os.fspath(checkpoint)
        state, __ = load_model_state(checkpoint)
        if dtype is None and hasattr(model, "to_dtype"):
            # Adopt the checkpoint's precision: if every stored float
            # array is float32 the run was trained in float32 — keep
            # serving it that way rather than silently upcasting.
            stored = {
                np.asarray(values).dtype
                for values in state.values()
                if np.issubdtype(np.asarray(values).dtype, np.floating)
            }
            if stored == {np.dtype(np.float32)}:
                dtype = np.float32
        if dtype is not None and hasattr(model, "to_dtype"):
            model.to_dtype(dtype)
        _load_into(model, state, checkpoint)
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
            _load_into(self.model, state, checkpoint)
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
    # Serving (entry points: EngineFacade.recommend / recommend_batch)
    # ------------------------------------------------------------------
    def _serve_batch(
        self, requests: list[RecRequest], started: float
    ) -> list[Recommendation]:
        """resolve → cache → encode → score → topk, one answer per request."""
        n = len(requests)
        errors: list[tuple[str, str] | None] = [None] * n
        with self.metrics.time_stage("total"):
            with self.metrics.time_stage("resolve"):
                sequences, exclusions = self._resolve(requests, errors)
            deadlines: list = [None] * n
            if self.policy is not None:
                for i, request in enumerate(requests):
                    if errors[i] is not None:
                        continue
                    deadline = self.policy.deadline_for(request, started)
                    deadlines[i] = deadline
                    if deadline is not None and deadline.expired():
                        self.metrics.increment("deadline_exceeded")
                        errors[i] = (
                            REASON_DEADLINE,
                            "deadline expired before scoring started "
                            f"(budget {request.deadline_ms or self.policy.config.default_deadline_ms:g}ms)",
                        )
            keys = [
                sequence_key(sequences[i]) if errors[i] is None else None
                for i in range(n)
            ]
            rows, cached_flags, tiers = self._compute_rows(
                keys, sequences, deadlines, errors
            )
            # _select_batch times its own "score" (index search) and
            # "topk" (selection/assembly) stages.
            results = self._select_batch(
                requests, rows, exclusions, cached_flags, tiers, errors
            )
        self.metrics.increment("requests", len(requests))
        self.metrics.increment("batches")
        return results

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def warm(self, users: np.ndarray) -> int:
        """Pre-populate the representation cache for ``users``.

        Returns the number of sequences actually encoded (cache misses).
        """
        users = np.asarray(users)
        sequences = [
            np.asarray(self.dataset.full_sequence(int(u), split=self.split))
            for u in users
        ]
        keys = [sequence_key(seq) for seq in sequences]
        before = self.metrics.counters.get("sequences_encoded", 0)
        self._compute_rows(
            keys, sequences, [None] * len(keys), [None] * len(keys)
        )
        return self.metrics.counters.get("sequences_encoded", 0) - before

    def invalidate_cache(self) -> None:
        """Drop every cached representation (after a weight update)."""
        self.cache.clear()

    def close(self) -> None:
        """Release engine resources (a no-op for the in-process engine).

        Exists so servers and CLIs can shut any engine flavour down
        uniformly; :class:`repro.serve.workers.ShardedEngine` overrides
        this to stop its worker pool and retire shared memory.
        """

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _resolve(
        self, requests: list[RecRequest], errors: list
    ) -> tuple[list, list]:
        """Request → (history sequence, excluded item ids or None).

        A request addressing an unknown user or item records a per-item
        ``bad_request`` error and resolves to nothing.
        """
        sequences: list = [None] * len(requests)
        exclusions: list = [None] * len(requests)
        for i, request in enumerate(requests):
            user = request.user
            if user is not None:
                if not 0 <= user < self.dataset.num_users:
                    errors[i] = (
                        REASON_BAD_REQUEST,
                        f"user {user} out of range [0, {self.dataset.num_users})",
                    )
                    continue
                sequences[i] = np.asarray(
                    self.dataset.full_sequence(user, split=self.split)
                )
                if request.exclude_seen:
                    exclusions[i] = self.dataset.seen_items(user)
            else:
                items = request.sequence
                if min(items) < 0 or max(items) > self.dataset.num_items:
                    errors[i] = (
                        REASON_BAD_REQUEST,
                        f"sequence item ids must be in [0, {self.dataset.num_items}]",
                    )
                    continue
                sequences[i] = np.asarray(items, dtype=np.int64)
                if request.exclude_seen:
                    exclusions[i] = np.unique(sequences[i])
        return sequences, exclusions

    def _popularity(self) -> PopularityFallback:
        """The tier-2 popularity scores, built lazily on first degrade."""
        if self._popularity_fallback is None:
            self._popularity_fallback = PopularityFallback(self.dataset)
        return self._popularity_fallback

    def _compute_rows(
        self,
        keys: list,
        sequences: list,
        deadlines: list,
        errors: list,
    ) -> tuple[list, list[bool], list]:
        """Per-request user representations, from the cache or the encoder.

        Deduplicates within the batch, encodes only cache misses in
        micro-batches, and records hit/miss counters per request.
        With a resilience policy, encoding is gated behind the circuit
        breaker and each request's deadline budget; requests that
        cannot afford (or are refused) an encoder forward degrade to
        the fallback chain — exact-sequence cache when present,
        popularity otherwise.  Returns ``(rows, cached_flags, tiers)``
        where ``tiers[i]`` is ``None`` (full quality), ``"cache"`` or
        ``"popularity"`` (no representation: ``rows[i]`` stays ``None``).
        """
        n = len(keys)
        cached_flags = [False] * n
        tiers: list = [None] * n
        live = [i for i in range(n) if errors[i] is None]
        hit_idx: list[int] = []
        groups: dict[bytes, list[int]] = {}
        # Rows resolved during *this* call, keyed by sequence.  Row
        # assembly reads from here, not from the LRU cache: with a
        # cache smaller than the batch's distinct-sequence count, a
        # later put can evict a row resolved earlier in the same call.
        local_rows: dict[bytes, np.ndarray] = {}
        for i in live:
            row = self.cache.get(keys[i])
            if row is not None:
                local_rows[keys[i]] = row
                cached_flags[i] = True
                hit_idx.append(i)
                self.metrics.record_cache(True)
            else:
                groups.setdefault(keys[i], []).append(i)

        # Decide, per distinct missing sequence, whether an encoder
        # forward is allowed: breaker first (one gate per batch, so a
        # half-open probe admits one micro-batched attempt), then the
        # deadline economics of the requests wanting it.
        misses: dict[bytes, np.ndarray] = {}
        breaker_gate: bool | None = None
        for key, idxs in groups.items():
            allowed = True
            if self.policy is not None:
                if breaker_gate is None:
                    breaker_gate = self.policy.breaker.allow()
                allowed = breaker_gate and any(
                    not self.policy.encode_would_blow(deadlines[i])
                    for i in idxs
                )
            if allowed:
                misses[key] = sequences[idxs[0]]
            else:
                for i in idxs:
                    tiers[i] = "popularity"
            self.metrics.record_cache(False)
            for i in idxs[1:]:
                cached_flags[i] = True  # coalesced with an earlier request
                self.metrics.increment("coalesced_requests")
                self.metrics.record_cache(True)

        failed_keys: set[bytes] = set()
        if misses:
            miss_keys = list(misses)
            encoded_count = 0
            with self.metrics.time_stage("encode"):
                for chunk_start in range(0, len(miss_keys), self.max_batch_size):
                    chunk_keys = miss_keys[
                        chunk_start : chunk_start + self.max_batch_size
                    ]
                    t0 = time.perf_counter()
                    try:
                        encoded = self._encode([misses[key] for key in chunk_keys])
                    except Exception:
                        latency = time.perf_counter() - t0
                        self.metrics.increment("encode_errors")
                        if self.policy is None:
                            raise
                        self.policy.record_encode(False, latency)
                        failed_keys.update(chunk_keys)
                        continue
                    latency = time.perf_counter() - t0
                    if self.policy is not None:
                        self.policy.record_encode(True, latency)
                    for key, row in zip(chunk_keys, encoded):
                        self.cache.put(key, row)
                        local_rows[key] = row
                    encoded_count += len(chunk_keys)
            self.metrics.increment("sequences_encoded", encoded_count)
        for key in failed_keys:
            for i in groups[key]:
                tiers[i] = "popularity"

        # Under an open (or probing) breaker the whole batch runs in
        # degraded mode: cache hits are tier-1 fallback answers.
        if (
            self.policy is not None
            and self.policy.breaker.state != BREAKER_CLOSED
        ):
            for i in hit_idx:
                tiers[i] = "cache"

        rows: list = [None] * n
        for i in live:
            if tiers[i] != "popularity":
                rows[i] = local_rows[keys[i]]
            if tiers[i] is not None:
                self.metrics.increment("requests_degraded")
                self.metrics.increment(f"fallback_{tiers[i]}")
        return rows, cached_flags, tiers

    def _encode(self, sequences: list[np.ndarray]) -> np.ndarray:
        """One micro-batch through the model (chaos fault sites live here)."""
        if self.faults is not None:
            self.faults.on_encode()
            delay = self.faults.encode_delay()
            if delay > 0.0:
                time.sleep(delay)
        return np.asarray(self.model.encode_sequences(sequences))

    def _select_batch(
        self,
        requests: list[RecRequest],
        rows: list,
        exclusions: list,
        cached_flags: list[bool],
        tiers: list,
        errors: list,
    ) -> list[Recommendation]:
        """Score through the retrieval index and select top-k, batched.

        Requests backed by a representation (tiers ``None`` /
        ``"cache"``) go through :meth:`ItemIndex.search` under the
        ``score`` stage; popularity-degraded requests share one
        precomputed score row and take the dense mask + partial-sort
        path under ``topk``.  With the default :class:`ExactIndex` both
        paths are bit-identical to the historical engine.
        """
        n = len(requests)
        picked: list = [None] * n  # (items, scores) per served request
        live = [i for i in range(n) if errors[i] is None]
        served = [i for i in live if tiers[i] != "popularity"]
        popular = [i for i in live if tiers[i] == "popularity"]

        if served:
            queries = np.stack([rows[i] for i in served])
            with self.metrics.time_stage("score"):
                found = self.index.search(
                    queries,
                    min(max(requests[i].k for i in served), self.index.num_rows),
                    exclude=[exclusions[i] for i in served],
                )
            stats = found.stats
            self.metrics.increment("items_scored", stats.candidates_scored)
            self.metrics.increment(
                "index_candidates_scored", stats.candidates_scored
            )
            self.metrics.increment("index_clusters_probed", stats.clusters_probed)
            self.metrics.increment("index_reranked", stats.reranked)

        with self.metrics.time_stage("topk"):
            for j, i in enumerate(served):
                finite = np.isfinite(found.scores[j])
                picked[i] = (
                    found.items[j][finite][: requests[i].k],
                    found.scores[j][finite][: requests[i].k],
                )
            if popular:
                scores = np.tile(
                    self._popularity().score_row(), (len(popular), 1)
                )
                self.metrics.increment("items_scored", scores.size)
                apply_exclusions(scores, [exclusions[i] for i in popular])
                max_k = min(max(requests[i].k for i in popular), scores.shape[1])
                top = top_k_indices(scores, max_k)
                for j, i in enumerate(popular):
                    row_top = top[j][np.isfinite(scores[j, top[j]])][
                        : requests[i].k
                    ]
                    picked[i] = (row_top, scores[j, row_top])
            results = []
            for i, request in enumerate(requests):
                if errors[i] is not None:
                    reason, detail = errors[i]
                    results.append(Recommendation(
                        items=np.empty(0, dtype=np.int64),
                        scores=np.empty(0, dtype=np.float64),
                        request=request,
                        error=reason,
                        detail=detail,
                        model_version=self.model_version,
                    ))
                    continue
                top_items, top_scores = picked[i]
                results.append(Recommendation(
                    items=top_items,
                    scores=top_scores,
                    request=request,
                    cached=cached_flags[i],
                    degraded=tiers[i] is not None,
                    fallback=tiers[i],
                    model_version=self.model_version,
                ))
        return results
