"""The ``workers=N`` gradient source: shared-memory training workers.

:func:`repro.train.loop.run_training` (the coordinator) owns the
authoritative model, the optimizer, the lr schedule, the divergence
guard and the :class:`~repro.runtime.resume.TrainingRuntime`; when
``config.workers >= 1`` its gradients come from a
:class:`ParallelWorkerPool`, which forks N workers (over the
:mod:`repro.core.procpool` transport) that each run the coordinator's own :class:`~repro.train.stages.Stage` and hold

* a zero-copy view of the **parameter pages** — one
  :class:`~repro.core.shm.SharedArrays` segment the coordinator
  republishes before every step (workers map it read-only, so N
  workers cost one copy of the weights);
* a private **gradient segment** the worker alone writes — gradients
  never travel through pickle, only through shared pages;
* its own shard of the eligible users (round-robin ``users[w::N]``)
  and its own spawned RNG streams, so augmentation, shuffling, negative
  sampling and dropout are independent across workers but fully
  determined by the seed.

Per step, every active worker builds one micro-batch, runs
``stage.compute()``, writes its gradient into shared memory and replies
with scalars (loss, row count, stage metrics); the pool then reduces
the worker gradients in **fixed worker order with pairwise
(binary-tree) summation** (:func:`pairwise_sum`) —
float addition is not associative, so a fixed reduction tree is what
makes the summed gradient, and therefore the whole run, bit-reproducible
at a fixed worker count.

Determinism contract (tested in ``tests/train/test_parallel.py``):

* Two runs with the same seed **and the same worker count** produce
  bit-identical weights, losses, checkpoints and obs metrics.
* ``workers=0`` never imports this module: the same loop runs the same
  stage in-process, forks nothing and creates no shared segment.
* **Different worker counts diverge** (intentionally): each worker
  spawns its own RNG child streams, the effective batch is the union of
  N micro-batches, and steps-per-epoch is the max worker shard's batch
  count — the run is a different (equally valid) sample of the same
  optimization, not a bit-replay of ``workers=0``.
* Resume restores every worker's RNG streams: the checkpoint carries
  one ``aux/worker_rng`` group with each worker's serialized generator
  states (bit state and spawn count), captured at epoch boundaries.
  Worker streams are *spawned* in a fresh process and then *restored*,
  so a resumed run continues bit-exactly on either data pipeline.

Failure model (docs/SCALING.md "Worker failure model"): processes and
pipes belong to one :class:`~repro.core.procpool.ProcessPool`, so a
worker that dies, hangs past ``worker_timeout_s`` or raises mid-step
surfaces as a structured :class:`WorkerFailedError` naming the worker
and the global step; the loop's ``finally`` closes the pool, which
stops the workers and then tears every shared segment down (close +
unlink) so nothing leaks.
``FaultInjector.kill_worker`` schedules a deterministic worker death
for tests.
"""

from __future__ import annotations

import time

import numpy as np

from repro.augment.batched import spawn_stream
from repro.core.procpool import ClosesOnExit, ProcessPool, WorkerFailedError
from repro.core.shm import SharedArrays, adopt_parameters
from repro.nn.serialization import CheckpointError
from repro.runtime.resume import capture_rng_states, restore_rng_states
from repro.train.stages import dedup_rngs

__all__ = ["WorkerFailedError", "ParallelWorkerPool", "pairwise_sum"]

#: Checkpoint aux group holding each worker's serialized RNG streams.
WORKER_RNG_GROUP = "worker_rng"


def pairwise_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Fixed-order pairwise (binary-tree) summation.

    The reduction tree depends only on ``len(arrays)`` — never on
    which worker replied first — so summing N worker gradients is
    bit-reproducible at fixed N.  Pairwise summation also carries the
    classic O(log N) rounding-error bound, for free.
    """
    items = list(arrays)
    if not items:
        raise ValueError("pairwise_sum needs at least one array")
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _named_trainable(stage) -> list:
    """``stage.params`` under their state-dict names.

    The gradient-page layout both sides index by: named_parameters
    order, same Parameter objects as the optimizer's ``stage.params``.
    """
    ids = {id(param) for param in stage.params}
    return [
        (name, param)
        for name, param in stage.model.named_parameters()
        if id(param) in ids
    ]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _rebind_model_rng(model, stream) -> None:
    """Point every module-held generator reference at ``stream``.

    Layers capture the model's generator *object* at construction time
    (dropout shares ``model._rng``), so rebinding only ``model._rng``
    would leave dropout drawing from the fork-inherited coordinator
    generator — invisible to the worker's RNG capture/restore and
    therefore not bit-exact across a resume.
    """
    old = getattr(model, "_rng", None)
    for module in model.modules():
        for name, value in list(vars(module).items()):
            if value is old:
                object.__setattr__(module, name, stream)
    model._rng = stream


class _TrainWorker:
    """Worker-side half: the coordinator's stage on this worker's shard.

    Built inside the worker process by :class:`~repro.core.procpool.
    ProcessPool`.  Commands: ``("epoch", e)`` opens the epoch's batch
    streams, ``("step",)`` computes one micro-batch's gradient into the
    worker's gradient segment and replies with scalars, ``("get_rng",)``
    / ``("set_rng", packed)`` serialize/restore the worker's generator
    streams for checkpointing.
    """

    def __init__(self, spec: dict) -> None:
        self.stage = stage = spec["stage"]
        self.worker = worker = spec["worker"]
        self.faults = spec["faults"]
        self.pages = SharedArrays.attach(spec["pages"])
        adopt_parameters(stage.model, self.pages.views)
        self.grads = SharedArrays.attach(spec["grads"], writeable=True)
        # Dropout moves to its own spawned stream — the loop generator
        # keeps feeding the loaders exactly as in single-process mode.
        rng = spec["rng"]
        _rebind_model_rng(stage.model, spawn_stream(rng))
        stage.open(rng, worker_shard=(worker, spec["workers"]))
        self.trainable = _named_trainable(stage)
        stage.model.train()
        self.ready = {"steps_per_epoch": stage.steps_per_epoch}

    def handle(self, message):
        command, stage = message[0], self.stage
        if command == "epoch":
            stage.begin_epoch()
            return None
        if command == "step":
            if self.faults is not None:
                self.faults.on_worker_step(self.worker)
            started = time.perf_counter()
            loss, count, metrics = stage.compute()
            missing = []
            for index, (name, param) in enumerate(self.trainable):
                view = self.grads.views[name]
                if param.grad is None:
                    view[...] = 0.0
                    missing.append(index)
                else:
                    view[...] = param.grad
            return {
                "loss": float(loss),
                "count": int(count),
                "seconds": time.perf_counter() - started,
                "missing": missing,
                "metrics": metrics,
            }
        if command == "get_rng":
            return capture_rng_states(stage.rngs)
        if command == "set_rng":
            restore_rng_states(stage.rngs, message[1])
            return None
        raise ValueError(f"unknown command {command!r}")

    def close(self) -> None:
        self.pages.close()
        self.grads.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ParallelWorkerPool(ClosesOnExit):
    """N forked training workers over shared parameter pages.

    The coordinator creates every segment and is the only process that
    unlinks it; workers attach and close.  All control flow is
    synchronous — one command, one reply, in worker order — which is
    exactly what keeps the run deterministic.
    """

    def __init__(
        self,
        stage,
        rng: np.random.Generator,
        workers: int,
        faults=None,
        obs=None,
        worker_timeout_s: float = 300.0,
    ) -> None:
        self._closed = True  # nothing to tear down until the pool is up
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)
        self._global_step = 0
        self._model = model = stage.model
        self._obs = obs
        #: Tag on every epoch event; per-worker statistics of the
        #: current epoch (one ``parallel_worker`` event each).
        self.event_fields = {"workers": self.workers}
        self.worker_stats: list[dict] = []
        #: Coordinator-side streams; the workers' own travel through
        #: :meth:`capture_rng` / :meth:`restore_rng`.
        self.rngs = dedup_rngs([rng, getattr(model, "_rng", None)])

        self.trainable = _named_trainable(stage)

        # Workers' root streams are spawned BEFORE any checkpoint
        # restore: a fresh process always spawns the same children
        # first and restores their states afterwards (see restore_rng).
        child_rngs = [spawn_stream(rng) for __ in range(self.workers)]

        self._pages = SharedArrays.create(
            {name: param.data for name, param in model.named_parameters()},
            name_prefix="repro-train",
            writeable=True,
        )
        zeros = {name: np.zeros_like(param.data) for name, param in self.trainable}
        self._grads: list[SharedArrays] = []
        try:
            for __ in range(self.workers):
                self._grads.append(
                    SharedArrays.create(zeros, name_prefix="repro-grad")
                )
            self.grad_payload_bytes = self._grads[0].payload_bytes
            self._pool = ProcessPool(
                _TrainWorker,
                [
                    {
                        "stage": stage,
                        "rng": child_rngs[worker],
                        "worker": worker,
                        "workers": self.workers,
                        "pages": self._pages.meta(),
                        "grads": self._grads[worker].meta(),
                        "faults": faults,
                    }
                    for worker in range(self.workers)
                ],
                name="repro-train-worker",
                failure=self._worker_failed,
                timeout_s=worker_timeout_s,
            )
        except BaseException:
            self._unlink_segments()
            raise
        self._closed = False
        self.steps_per_worker = [
            int(ready["steps_per_epoch"]) for ready in self._pool.ready
        ]
        #: The coordinator drives the max shard's batch count; workers
        #: whose (smaller) shard is exhausted idle out the step tail.
        self.steps_per_epoch = max(self.steps_per_worker, default=0)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _worker_failed(self, worker: int, what: str):
        """What a failed pool call raises (the transport's wording hook)."""
        step = self._global_step
        return WorkerFailedError(
            worker, f"training worker {worker} {what} at global step {step}", step
        )

    def _unlink_segments(self) -> None:
        for segment in (self._pages, *self._grads):
            segment.close()
            segment.unlink()

    # ------------------------------------------------------------------
    # Training protocol
    # ------------------------------------------------------------------
    def publish(self) -> None:
        """Copy the coordinator's current parameters into the pages."""
        views = self._pages.views
        for name, param in self._model.named_parameters():
            views[name][...] = param.data

    def begin_epoch(self, epoch: int) -> None:
        """Open every worker's batch streams for ``epoch``."""
        self.worker_stats = [
            {"steps": 0, "sequences": 0, "seconds": 0.0}
            for __ in range(self.workers)
        ]
        for worker in range(self.workers):
            self._pool.send(worker, ("epoch", epoch))
        for worker in range(self.workers):
            self._pool.recv(worker)

    def step(self, step_index: int):
        """One synchronous step: publish, compute on workers, allreduce.

        Leaves the union micro-batch's gradient on the parameters and
        returns ``(loss, rows, metrics)`` with every scalar a
        row-count-weighted mean over the active workers (fixed order).
        """
        self.publish()
        self._global_step += 1
        active = [
            worker
            for worker in range(self.workers)
            if self.steps_per_worker[worker] > step_index
        ]
        for worker in active:
            self._pool.send(worker, ("step",))
        payloads = [self._pool.recv(worker) for worker in active]
        counts = [int(payload["count"]) for payload in payloads]
        reduce_started = time.perf_counter()
        total = self.reduce_gradients(active, payloads)
        reduce_seconds = time.perf_counter() - reduce_started

        def weighted(values) -> float:
            return sum(v * count for v, count in zip(values, counts)) / total

        for worker, payload in zip(active, payloads):
            stats = self.worker_stats[worker]
            stats["steps"] += 1
            stats["sequences"] += payload["count"]
            stats["seconds"] += payload["seconds"]
        obs = self._obs
        if obs is not None:
            obs.observe("train.allreduce_seconds", reduce_seconds)
            obs.increment(
                "train.grad_bytes_reduced", self.grad_payload_bytes * len(active)
            )
            for payload in payloads:
                if payload["seconds"] > 0:
                    obs.observe(
                        "train.worker_items_per_sec",
                        payload["count"] / payload["seconds"],
                    )
        metrics = {
            name: weighted([payload["metrics"][name] for payload in payloads])
            for name in payloads[0]["metrics"]
        }
        loss = weighted([payload["loss"] for payload in payloads])
        return loss, int(total), metrics

    def reduce_gradients(self, active: list[int], payloads: list[dict]) -> float:
        """Fixed-order weighted allreduce into ``param.grad``.

        Each worker's gradient is the mean over its ``count`` rows;
        weighting by row count and dividing by the union size yields
        the exact gradient of the union micro-batch's mean loss.
        Workers that saw no gradient for a parameter shipped zeros —
        they stay in the tree (fixed shape) unless *every* worker
        missed it, in which case the parameter keeps ``grad=None`` so
        the optimizer skips it exactly like the single-process loop.
        Returns the union row count.
        """
        counts = [int(payload["count"]) for payload in payloads]
        total = float(sum(counts))
        skip = set(payloads[0]["missing"]) if payloads else set()
        for payload in payloads[1:]:
            skip &= set(payload["missing"])
        for index, (name, param) in enumerate(self.trainable):
            if index in skip:
                param.grad = None
                continue
            scaled = [
                self._grads[worker].views[name] * float(count)
                for worker, count in zip(active, counts)
            ]
            grad = pairwise_sum(scaled)
            grad /= total
            param.grad = grad
        return total

    # ------------------------------------------------------------------
    # RNG stream checkpointing
    # ------------------------------------------------------------------
    def capture_rng(self, aux) -> None:
        """Store every worker's serialized generator states in ``aux``."""
        for worker in range(self.workers):
            self._pool.send(worker, ("get_rng",))
        aux[WORKER_RNG_GROUP] = {
            f"worker_{worker}": np.asarray(self._pool.recv(worker))
            for worker in range(self.workers)
        }

    def restore_rng(self, aux) -> None:
        """Restore each worker's streams from a resumed ``aux`` (if any)."""
        group = aux.get(WORKER_RNG_GROUP)
        if not group:
            return
        if len(group) != self.workers:
            raise CheckpointError(
                f"checkpoint holds RNG streams for {len(group)} training "
                f"workers, run has {self.workers} — resume with the worker "
                f"count the run was started with"
            )
        for worker in range(self.workers):
            key = f"worker_{worker}"
            if key not in group:
                raise CheckpointError(
                    f"checkpoint is missing RNG streams for training "
                    f"worker {worker}"
                )
            self._pool.send(worker, ("set_rng", group[key]))
        for worker in range(self.workers):
            self._pool.recv(worker)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop workers, then retire every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.close(timeout)
        self._unlink_segments()
