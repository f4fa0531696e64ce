"""Workload ``online_swap``: ingest -> fine-tune -> shadow-gate -> live swap.

``OnlineLoop`` in process on an IVF-PQ engine with a CL4SRec joint
trainer.  Uses ``retrieval`` as a *writer* (``index.rebuild`` inside
``engine.swap_model``) beside ``serve_cold``'s reads, and the training
stack through its third loop (``train_joint`` on a small window).
Bounded buffers make rounds stationary; the wide gate makes every round
promote, which is asserted.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from benchmarks.perf import stats
from benchmarks.perf.common import (
    Outcome,
    RunContext,
    best_of,
    clock,
    overhead_share,
    timed_setups,
)
from benchmarks.perf.serving import SHAPES, _build_breakdown
from benchmarks.perf.tracing import Spanned, Tracer
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import synthesize_trace
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.online import (
    FineTuneConfig,
    GateConfig,
    ModelVersionStore,
    OnlineLoop,
    OnlineLoopConfig,
    shadow_evaluate,
)
from repro.retrieval import make_index
from repro.runtime.checkpointing import read_archive
from repro.serve.engine import RecommendationEngine

#: Timed rounds at the reference run length (one more is run first and
#: dropped as warm-up).
TIMED_ROUNDS = 8
TRACED_REAL_ROUNDS = 2
TRACED_COMPOSED_ROUNDS = 3
MAX_LENGTH = 50


def _loop_config(seed: int) -> OnlineLoopConfig:
    return OnlineLoopConfig(
        events_per_round=50,
        buffer_capacity=96,
        holdout_capacity=32,
        seed=seed,
        gate=GateConfig(epsilon=1.0),
        finetune=FineTuneConfig(max_length=MAX_LENGTH),
    )


class _TimedSwap:
    """Stands where ``OnlineLoop`` expects its server: promotions go
    through ``reload``, so the swap is clocked without touching the loop."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.seconds: list[float] = []

    def reload(self, checkpoint: str) -> dict:
        started = clock()
        info = self.engine.swap_model(checkpoint)
        self.seconds.append(clock() - started)
        return {"status": "reloaded", **info}


class _Built:
    """One complete set-up: engine (index built), trainer, store, loop."""

    def __init__(self, ctx: RunContext) -> None:
        num_items = 800 if ctx.quick else 2000
        rng = np.random.default_rng([ctx.seed, 3])
        sequences = [rng.integers(1, num_items + 1, size=12) for __ in range(200)]
        self.dataset = SequenceDataset(
            train_sequences=[s[:-2] for s in sequences],
            valid_targets=[int(s[-2]) for s in sequences],
            test_targets=[int(s[-1]) for s in sequences],
            num_items=num_items,
            name="online_swap",
        )
        scale = ExperimentScale(dim=64, max_length=MAX_LENGTH, batch_size=64, epochs=1,
                                seed=ctx.seed)
        serving = build_model("CL4SRec", self.dataset, scale, mode="joint")
        self.trainer = build_model("CL4SRec", self.dataset, scale, mode="joint")
        shape = SHAPES["serve_cold"]
        self.engine = RecommendationEngine(
            serving, self.dataset, index=make_index(shape.index_kind, **shape.index_params)
        )
        self.swapper = _TimedSwap(self.engine)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=ctx.workdir)
        self.loop = OnlineLoop(
            self.engine, self.trainer,
            synthesize_trace(num_events=1_000_000, user_pool=self.dataset.num_users,
                             num_items=num_items, hot_users=50, seed=ctx.seed),
            ModelVersionStore(self.store_dir),
            _loop_config(ctx.seed),
            server=self.swapper,
        )

    def teardown(self) -> None:
        self.engine.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _run_rounds(outcome: Outcome, built: _Built, rounds: int) -> list[float]:
    """``rounds`` real ``run_round()`` calls, each clocked here."""
    seconds = []
    first_version = built.engine.model_version
    records = []
    for __ in range(rounds):
        started = clock()
        records.append(built.loop.run_round())
        seconds.append(clock() - started)
    promoted = sum(record.decision == "promote" for record in records)
    versions = [record.model_version for record in records]
    outcome.attempted += rounds
    outcome.failed += rounds - promoted
    outcome.check("promotions == rounds", promoted == rounds,
                  f"{promoted}/{rounds}: {[r.reason for r in records if r.decision != 'promote'][:2]}")
    outcome.check("model_version rises by one per round",
                  versions == list(range(first_version + 1, first_version + rounds + 1)),
                  f"{versions}")
    return seconds


def run_end_to_end(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    built, setups = timed_setups(lambda: _Built(ctx), _Built.teardown)
    try:
        rounds = _run_rounds(outcome, built, 1 + ctx.units(TIMED_ROUNDS))[1:]
    finally:
        built.teardown()
    swaps = built.swapper.seconds[1:]
    events = built.loop.config.events_per_round
    outcome.metrics = {
        "setup_s": stats.median(setups),
        "op_ms": best_of(swaps) * 1e3,
        "throughput_per_s": events / best_of(rounds),
    }
    outcome.row("catalogue.items", built.dataset.num_items, "count")
    outcome.timing_rows("online_round", rounds, 1.0, "s")
    outcome.timing_rows("swap_stall", swaps, 1.0, "s")
    outcome.row("swap_share_of_round", stats.median(swaps) / stats.median(rounds), "share",
                len(swaps))
    outcome.row("events_per_round", events, "count")
    return outcome


def _composed_round(tracer: Tracer, built: _Built, round_index: int) -> None:
    """One round re-composed from the loop's public parts, a span each.

    Mirrors ``OnlineLoop.run_round`` on the promote path (which the gate
    settings guarantee); what the real round costs beyond these parts is
    reported as the residual.
    """
    loop, config = built.loop, built.loop.config
    rng = np.random.default_rng([config.seed, round_index])
    with tracer.span("online.ingest"):
        batch = loop.ingestor.take(config.events_per_round)
        loop.buffer.extend(batch.train)
        loop.holdout.extend(batch.holdout)
        shadow_dataset = loop.holdout.as_dataset(built.dataset, split=True)
        train_dataset = loop.buffer.as_dataset(built.dataset, split=False)
    with tracer.span("online.finetune"):
        loop.finetuner.run_round(train_dataset, round_index, rng)
    with tracer.span("online.publish"):
        candidate = loop.store.publish(built.trainer.state_dict(), round_index=round_index)
    with tracer.span("online.shadow"):
        report = shadow_evaluate(
            built.engine.model, built.trainer, shadow_dataset, built.dataset,
            ks=config.ks, k=config.shadow_k, max_requests=config.shadow_requests,
        )
    path = loop.store.path(candidate.version)
    with tracer.span("online.swap"):
        built.engine.swap_model(path)
    loop.store.mark(candidate.version, "promoted", metrics=report.deltas)
    with tracer.span("runtime.checkpoint_load"):
        read_archive(path)


def run_traced(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    tracer = Tracer()
    built = _Built(ctx)
    try:
        rounds = _run_rounds(outcome, built, 1 + TRACED_REAL_ROUNDS)[1:]
        inner_index = built.engine.index
        traced_started = clock()
        for offset in range(TRACED_COMPOSED_ROUNDS):
            # swap_model replaces engine.index with what rebuild returns,
            # so the stand-in is put back before every round.
            built.engine.index = Spanned(
                built.engine.index, tracer, {"rebuild": "retrieval.rebuild"}
            )
            _composed_round(tracer, built, 1 + TRACED_REAL_ROUNDS + offset)
        traced_seconds = clock() - traced_started
        outcome.attempted += TRACED_COMPOSED_ROUNDS
        build = _build_breakdown(SHAPES["serve_cold"], inner_index.matrix)
    finally:
        built.teardown()

    def seconds(name: str) -> float:
        return stats.median(tracer.durations(name))

    parts = ("online.ingest", "online.finetune", "online.publish", "online.shadow",
             "online.swap")
    real_round = stats.median(rounds)
    outcome.metrics = {
        "online.round_s": real_round,
        "online.ingest_s": seconds("online.ingest"),
        "online.finetune_s": seconds("online.finetune"),
        "online.publish_s": seconds("online.publish"),
        "online.shadow_s": seconds("online.shadow"),
        "online.swap_s": seconds("online.swap"),
        "online.round_residual_s": real_round - sum(seconds(name) for name in parts),
        "retrieval.rebuild_s": seconds("retrieval.rebuild"),
        "runtime.checkpoint_load_s": seconds("runtime.checkpoint_load"),
        "retrieval.index_build_s": build["total"],
        "retrieval.build_kmeans_s": build["kmeans"],
        "retrieval.build_pq_fit_s": build["pq_fit"],
        "retrieval.build_encode_s": build["encode"],
        "retrieval.build_residual_s": build["residual"],
        "trace.overhead_share": overhead_share(tracer, traced_seconds),
    }
    outcome.check("every composed round swapped",
                  len(tracer.durations("retrieval.rebuild")) == TRACED_COMPOSED_ROUNDS)
    return outcome


def run(ctx: RunContext) -> Outcome:
    return run_traced(ctx) if ctx.trace else run_end_to_end(ctx)
