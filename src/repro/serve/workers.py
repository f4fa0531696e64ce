"""Multi-process sharded serving: N scoring workers over shared memory.

Scale-out layer for :class:`repro.serve.engine.RecommendationEngine`.
One *template* engine (built exactly like the single-process path) is
wrapped by :class:`ShardedEngine`, which

* publishes the model weights and the item-embedding matrix once into a
  read-only ``multiprocessing.shared_memory`` segment
  (:class:`SharedModelState`) — workers map it zero-copy, so N workers
  cost one copy of the weights, not N;
* forks N scoring workers, each running its **own**
  :class:`~repro.serve.engine.RecommendationEngine` whose parameters
  and retrieval index are views into that segment, with a private
  per-shard LRU representation cache and its own resilience policy and
  metrics registry — no cross-process locks anywhere on the hot path;
* routes every request to a worker by the stable user-hash sharding in
  :mod:`repro.serve.shard` (so a returning user always hits the worker
  holding their cached representation), fans a batch out over pipes and
  merges the per-shard top-k responses back into request order.

``workers=0`` (the :class:`~repro.serve.config.ServeConfig` default)
never constructs this class, so the single-process path is replayed
bit-identically; with ``ExactIndex`` the sharded path returns the same
items and scores as well (property-tested in
``tests/serve/test_workers.py``) because scoring batches are padded to
a fixed length and therefore batch-composition independent.

Shared-memory lifecycle protocol (leak-free by construction): the
parent *creates* every segment and is the only process to ``unlink()``
it, exactly once; workers only ever *attach* and ``close()``.  Model
swaps publish a brand-new segment and retire the old one after every
worker acknowledged the switch — a segment is never written again once
workers can see it, so torn reads are impossible (worker views are
read-only ndarrays; a stray write raises instead of corrupting).
"""

from __future__ import annotations

import os
import threading
from contextlib import ExitStack
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.core.procpool import ClosesOnExit, ProcessPool, WorkerFailedError
from repro.core.shm import SharedArrays, adopt_parameters, allocate_segment
from repro.retrieval import INDEX_KINDS
from repro.retrieval.exact import ExactIndex
from repro.serve.engine import EngineFacade, RecommendationEngine
from repro.serve.metrics import ServingMetrics
from repro.serve.requests import Recommendation, RecRequest
from repro.serve.shard import partition_requests, shard_for_user

__all__ = [
    "MATRIX_KEY",
    "SharedModelState",
    "ShardedEngine",
]

#: Reserved entry name for the item-embedding matrix inside a shared
#: segment (model parameters use their ``state_dict`` names, which are
#: dotted identifiers and can never collide with the dunder form).
MATRIX_KEY = "__item_matrix__"

#: Reservoir samples each worker ships per histogram on a ``/metrics``
#: export; aggregates (count/total/max) stay exact regardless.
METRICS_SAMPLE_CAP = 4096


class SharedModelState(SharedArrays):
    """One read-only shared-memory segment holding arrays by name.

    A :class:`repro.core.shm.SharedArrays` (the create/attach/cleanup
    lifecycle lives there, shared with data-parallel training) plus the
    serving-specific pieces: a model-version ``generation`` stamp, the
    reserved item-matrix entry, and the weight/matrix split views.
    """

    def __init__(self, shm: SharedMemory, entries: dict, generation: int,
                 owner: bool) -> None:
        super().__init__(shm, entries, owner=owner, writeable=False)
        self.generation = int(generation)

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray],
               generation: int) -> "SharedModelState":
        """Publish ``arrays`` into a fresh segment (the caller owns it)."""
        shm, entries = allocate_segment(arrays, name_prefix="repro-serve")
        return cls(shm, entries, generation, owner=True)

    def meta(self) -> dict:
        """Picklable attachment handle (segment name + layout)."""
        return {
            "name": self.shm.name,
            "entries": self.entries,
            "generation": self.generation,
        }

    @classmethod
    def attach(cls, meta: dict) -> "SharedModelState":
        """Map an existing segment created by another process."""
        shm = SharedMemory(name=meta["name"])
        return cls(shm, meta["entries"], meta["generation"], owner=False)

    @property
    def matrix(self) -> np.ndarray:
        """The read-only item-embedding matrix view."""
        return self.views[MATRIX_KEY]

    def weight_views(self) -> dict[str, np.ndarray]:
        """Parameter-name -> read-only view (the matrix excluded)."""
        return {
            name: view for name, view in self.views.items()
            if name != MATRIX_KEY
        }


def _build_worker_index(kind: str, params: dict, matrix: np.ndarray):
    """A worker-local index over the shared matrix view.

    ``ExactIndex.build`` keeps a contiguous view by reference, so the
    default retrieval path is fully zero-copy; approximate kinds build
    their structures locally from the same hyperparameters.  Workers
    agree by induction: every one cold-builds here from the same seeded
    ``params`` and matrix, and every ``"swap"`` applies the same
    ``rebuild`` (for ``ivf_pq`` a function of the live codebooks) to the
    same new matrix — as the template does, when it was wrapped unswapped.
    """
    if kind == "exact":
        return ExactIndex().build(matrix)
    return INDEX_KINDS[kind].from_kind(kind, **params).build(matrix)


def _result_payload(result: Recommendation) -> dict:
    """The picklable part of a Recommendation (the request stays local)."""
    return {
        "items": result.items,
        "scores": result.scores,
        "cached": result.cached,
        "degraded": result.degraded,
        "fallback": result.fallback,
        "error": result.error,
        "detail": result.detail,
        "model_version": result.model_version,
    }


class _ScoringWorker:
    """Worker-side half: a private engine over the shared segment.

    Built inside the worker process by :class:`~repro.core.procpool.
    ProcessPool`: attaches the shared segment, adopts weights and matrix
    zero-copy, then answers one command at a time.  Unservable requests
    travel back inside result payloads (``on_error="report"``); only
    command-level faults raise, which the transport ships to the parent.
    """

    ready = None  # nothing to report at start-up

    def __init__(self, spec: dict) -> None:
        self.shared = SharedModelState.attach(spec["shared"])
        adopt_parameters(spec["model"], self.shared.weight_views())
        index = _build_worker_index(
            spec["index_kind"], spec["index_params"], self.shared.matrix
        )
        self.engine = engine = RecommendationEngine(
            spec["model"],
            spec["dataset"],
            max_batch_size=spec["max_batch_size"],
            cache_size=spec["cache_size"],
            split=spec["split"],
            metrics=ServingMetrics(seed=spec["metrics_seed"]),
            resilience=spec["resilience"],
            faults=spec["faults"],
            index=index,
        )
        engine.model_version = spec["model_version"]
        engine.checkpoint_path = spec["checkpoint_path"]
        engine.metrics.set_gauge("model_version", engine.model_version)

    def handle(self, message):
        command, engine = message[0], self.engine
        if command == "recommend":
            __, requests, started = message
            results = engine.recommend_batch(
                requests, started=started, on_error="report"
            )
            return [_result_payload(r) for r in results]
        if command == "swap":
            __, meta, checkpoint, version, step = message
            new_state = SharedModelState.attach(meta)
            adopt_parameters(engine.model, new_state.weight_views())
            engine.index = engine.index.rebuild(new_state.matrix)
            engine.invalidate_cache()
            engine.model_version = version
            engine.checkpoint_path = checkpoint
            # The frontend counts the swap (merged counters *add*,
            # so a per-worker increment would multiply one swap by
            # the worker count); workers only publish the gauge.
            engine.metrics.set_gauge("model_version", version)
            old, self.shared = self.shared, new_state
            old.close()
            return {"model_version": version, "step": step}
        if command == "metrics":
            return engine.metrics.state(sample_cap=message[1])
        if command == "invalidate":
            engine.invalidate_cache()
            return None
        if command == "warm":
            return engine.warm(np.asarray(message[1]))
        if command == "set_faults":
            engine.faults = message[1]
            return None
        if command == "stats":
            return {
                "pid": os.getpid(),
                "cache_entries": len(engine.cache),
                "cache_size": engine.cache.maxsize,
                "model_version": engine.model_version,
                "generation": self.shared.generation,
            }
        raise ValueError(f"unknown command {command!r}")

    def close(self) -> None:
        self.shared.close()


class _FrontendMetrics(ServingMetrics):
    """The frontend facade's registry merged live with every worker's.

    ``snapshot()`` (the ``/metrics`` payload) pulls each worker's raw
    registry state and merges it into a scratch registry together with
    the frontend's own counters and gauges, so repeated exports never
    double count and worker shutdown keeps the last observed state.
    """

    def __init__(self, engine: "ShardedEngine", seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._engine = engine

    def snapshot(self) -> dict:
        snap = self.merged_snapshot(self._engine._worker_states())
        snap["workers"] = self._engine.worker_info()
        return snap


class ShardedEngine(ClosesOnExit, EngineFacade):
    """Fan requests out over N worker processes; merge top-k back.

    Drop-in for :class:`RecommendationEngine` as far as
    :class:`~repro.serve.server.RecommendationServer` and the CLI are
    concerned: ``recommend`` / ``recommend_batch`` (the shared
    :class:`~repro.serve.engine.EngineFacade`) / ``swap_model`` /
    ``warm`` / ``invalidate_cache`` / ``metrics`` / ``close`` all exist
    with the same semantics.  Unlike
    the single-process engine it is **thread-safe** (``thread_safe =
    True``): per-shard pipe locks serialize each worker's channel while
    different shards serve concurrently, so the HTTP server skips its
    global scoring lock and real parallelism reaches the workers.

    ``template`` is a fully built single-process engine; it contributes
    the weights, dataset, index hyperparameters, resilience config and
    fault injector, and keeps handling validation-heavy control work
    (``swap_model`` probes) while the workers do all scoring.

    Processes and pipes belong to one
    :class:`~repro.core.procpool.ProcessPool`: a worker that died or
    stayed silent past ``worker_timeout_s`` raises a
    :class:`~repro.core.procpool.WorkerFailedError` naming the shard
    (docs/SCALING.md "Worker failure model"); a command that raised
    inside a worker re-raises here as the worker's own exception.
    """

    thread_safe = True

    def __init__(
        self,
        template: RecommendationEngine,
        workers: int,
        worker_timeout_s: float = 120.0,
    ) -> None:
        self._closed = True  # nothing to tear down until the pool is up
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self._template = template
        self.workers = int(workers)
        self.metrics = _FrontendMetrics(self, seed=0)
        self.metrics.touch("fanout_batches")
        self._swap_lock = threading.Lock()
        self._locks = [threading.Lock() for __ in range(workers)]
        self._final_states: list[dict] = []

        arrays = dict(template.model.state_dict())
        if MATRIX_KEY in arrays:
            raise ValueError(f"model state dict uses reserved key {MATRIX_KEY!r}")
        arrays[MATRIX_KEY] = template.index.matrix
        self._shared = SharedModelState.create(
            arrays, generation=template.model_version
        )

        # Memory parity with the single-process engine: the configured
        # cache budget is split across shards.
        worker_cache_size = max(1, template.cache.maxsize // workers)
        resilience = (
            template.policy.config if template.policy is not None else None
        )
        specs = [
            {
                "shared": self._shared.meta(),
                "model": template.model,
                "dataset": template.dataset,
                "max_batch_size": template.max_batch_size,
                "cache_size": worker_cache_size,
                "split": template.split,
                "metrics_seed": shard + 1,
                "resilience": resilience,
                "faults": template.faults,
                "index_kind": template.index.kind,
                "index_params": template.index._artifact_params(),
                "model_version": template.model_version,
                "checkpoint_path": template.checkpoint_path,
            }
            for shard in range(workers)
        ]
        try:
            self._pool = ProcessPool(
                _ScoringWorker,
                specs,
                name="repro-scoring-worker",
                failure=self._worker_failed,
                timeout_s=worker_timeout_s,
            )
        except BaseException:
            self._shared.close()
            self._shared.unlink()
            raise
        self._closed = False

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _worker_failed(shard: int, what: str, raised=None) -> BaseException:
        """What a failed pool call raises (the transport's wording hook)."""
        if raised is not None:
            return raised
        return WorkerFailedError(shard, f"scoring worker {shard} {what}")

    def _hold(self, shards) -> ExitStack:
        """Acquire the given shard locks in sorted order (no deadlocks)."""
        stack = ExitStack()
        for shard in sorted(shards):
            stack.enter_context(self._locks[shard])
        return stack

    def _call(self, shard: int, message):
        """One command to one shard, and its reply."""
        with self._locks[shard]:
            self._pool.send(shard, message)
            return self._pool.recv(shard)

    def _broadcast(self, message) -> None:
        """One command to every shard, all channels held across it."""
        with self._hold(range(self.workers)):
            for shard in range(self.workers):
                self._pool.send(shard, message)
            for shard in range(self.workers):
                self._pool.recv(shard)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the worker pool is closed")

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve_batch(
        self, requests: list[RecRequest], started: float
    ) -> list[Recommendation]:
        """Partition by user hash, fan out, merge back in request order.

        ``started`` transfers across processes untouched —
        ``time.monotonic`` is system-wide on Linux, so deadline budgets
        anchored at HTTP arrival time hold inside the workers too.
        Workers record unservable requests per item, exactly as the
        in-process engine does; the shared facade applies ``on_error``.
        """
        self._check_open()
        partition = partition_requests(requests, self.workers)
        results: list[Recommendation | None] = [None] * len(requests)
        with self.metrics.time_stage("fanout"):
            with self._hold(partition):
                shards = sorted(partition)
                for shard in shards:
                    self._pool.send(shard, (
                        "recommend",
                        [requests[i] for i in partition[shard]],
                        started,
                    ))
                for shard in shards:
                    payloads = self._pool.recv(shard)
                    for i, payload in zip(partition[shard], payloads):
                        results[i] = Recommendation(
                            request=requests[i], **payload
                        )
        self.metrics.increment("fanout_batches")
        return results

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def swap_model(self, checkpoint) -> dict:
        """Validate on the template, then publish to every worker.

        The template engine performs the full crash-safe swap first
        (checksum, state-dict fit, probe) — a bad checkpoint never
        reaches a worker.  On success a *new* shared segment is written,
        all shard locks are taken (quiescing traffic so no request
        spans the flip), every worker re-points its weights and index
        and acknowledges, and only then is the old segment retired.
        Workers therefore never serve a stale ``model_version`` after
        the swap returns.
        """
        self._check_open()
        with self._swap_lock:
            info = self._template.swap_model(checkpoint)
            arrays = dict(self._template.model.state_dict())
            arrays[MATRIX_KEY] = self._template.index.matrix
            new_shared = SharedModelState.create(
                arrays, generation=info["model_version"]
            )
            try:
                self._publish(new_shared, info)
            except BaseException:
                # ``close()`` only knows ``self._shared``; a segment that
                # never became it is retired here or never.
                new_shared.close()
                new_shared.unlink()
                raise
            old, self._shared = self._shared, new_shared
            old.close()
            old.unlink()
        self.metrics.increment("model_swaps")
        self.metrics.set_gauge("model_version", info["model_version"])
        return info

    def _publish(self, new_shared: SharedModelState, info: dict) -> None:
        """Quiesce every shard and re-point it at ``new_shared``."""
        failures = []
        with self._hold(range(self.workers)):
            for shard in range(self.workers):
                self._pool.send(shard, (
                    "swap",
                    new_shared.meta(),
                    info["checkpoint"],
                    info["model_version"],
                    info["step"],
                ))
            for shard in range(self.workers):
                try:
                    self._pool.recv(shard)
                except Exception as error:
                    failures.append((shard, error))
        if failures:
            # The template already validated this checkpoint, so a
            # worker-side failure means a dead/wedged process; the
            # pool is no longer coherent and must be rebuilt.
            raise RuntimeError(
                f"model swap failed on workers "
                f"{[shard for shard, __ in failures]}: {failures[0][1]}"
            )

    def warm(self, users: np.ndarray) -> int:
        """Pre-populate each shard's cache for its own users."""
        self._check_open()
        by_shard: dict[int, list[int]] = {}
        for user in np.asarray(users).tolist():
            by_shard.setdefault(
                shard_for_user(int(user), self.workers), []
            ).append(int(user))
        return sum(
            self._call(shard, ("warm", shard_users))
            for shard, shard_users in sorted(by_shard.items())
        )

    def invalidate_cache(self) -> None:
        """Drop every shard's representation cache."""
        self._check_open()
        self._broadcast(("invalidate",))

    def set_faults(self, faults) -> None:
        """Install a fault injector in every worker (chaos testing).

        Fork isolates worker memory, so mutating the template's
        injector after construction does not reach the workers; ship
        the configured injector explicitly instead.
        """
        self._check_open()
        self._template.faults = faults
        self._broadcast(("set_faults", faults))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _worker_states(self) -> list[dict]:
        """Every worker's raw metrics state (last known once closed)."""
        if self._closed:
            return self._final_states
        return [
            self._call(shard, ("metrics", METRICS_SAMPLE_CAP))
            for shard in range(self.workers)
        ]

    def worker_info(self) -> dict:
        """Pool shape for ``/metrics`` and ``/health`` payloads."""
        processes = self._pool.processes
        return {
            "count": self.workers,
            "start_method": self._pool.start_method,
            "pids": [process.pid for process in processes],
            "alive": sum(process.is_alive() for process in processes),
        }

    def worker_stats(self) -> list[dict]:
        """Per-worker cache/version stats (stress tests, debugging)."""
        self._check_open()
        return [self._call(shard, ("stats",)) for shard in range(self.workers)]

    # Delegated views of the template so the HTTP server, health checks
    # and the CLI treat both engine flavours uniformly.
    @property
    def model(self):
        return self._template.model

    @property
    def dataset(self):
        return self._template.dataset

    @property
    def index(self):
        return self._template.index

    @property
    def policy(self):
        return self._template.policy

    @property
    def faults(self):
        return self._template.faults

    @property
    def cache(self):
        return self._template.cache

    @property
    def max_batch_size(self) -> int:
        return self._template.max_batch_size

    @property
    def split(self) -> str:
        return self._template.split

    @property
    def model_version(self) -> int:
        return self._template.model_version

    @property
    def checkpoint_path(self) -> str | None:
        return self._template.checkpoint_path

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and retire the shared segment (idempotent).

        Capture each worker's final metrics first (so post-shutdown
        ``/metrics`` exports keep the totals), stop the pool, and only
        then close and unlink the segment — the parent is its owner, so
        exactly one unlink happens and the resource tracker reports no
        leaks at interpreter exit.
        """
        if self._closed:
            return
        try:
            self._final_states = self._worker_states()
        except Exception:
            self._final_states = []
        self._closed = True
        self._pool.close(timeout)
        self._shared.close()
        self._shared.unlink()
