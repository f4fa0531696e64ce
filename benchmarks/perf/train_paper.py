"""Workload ``train_paper``: the paper's own path.

Contrastive pre-training, next-item fine-tuning, then full-ranking
evaluation, on a synthetic dataset with the default configuration
(reference pipeline, float64, single process).  ``nn`` forward/backward
does most of the work, ``data``/``augment`` a visible minority,
``serve``/``retrieval`` nothing.
"""

from __future__ import annotations

from benchmarks.perf import stats
from benchmarks.perf.common import (
    BenchObserver,
    Outcome,
    RunContext,
    all_finite,
    best_of,
    clock,
    overhead_share,
    timed_setups,
    unit_durations,
)
from benchmarks.perf.tracing import Tracer
from repro.core.trainer import pretrain_contrastive
from repro.data.loaders import ContrastiveBatchLoader, NextItemBatchLoader
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.eval.evaluator import Evaluator, candidate_scores
from repro.experiments.config import ExperimentScale
from repro.models.pop import Pop
from repro.models.registry import build_model
from repro.models.training import train_next_item_model
from repro.nn.optim import Adam, GradientClipper, LinearDecaySchedule

BATCH_SIZE = 128
USERS = 2 * BATCH_SIZE
USERS_QUICK = BATCH_SIZE
ITEMS = 400
#: Timed units per phase at the reference run length (one more is run
#: first and dropped as warm-up).
TIMED_EPOCHS = 5
TIMED_EVALS = 15
#: The traced run repeats the real loops just long enough for a median.
TRACED_REAL_UNITS = 2
TRACED_STEP_EPOCHS = 3


def _build(ctx: RunContext, epochs: int):
    """Dataset, model and evaluator — everything before the first epoch."""
    users = USERS_QUICK if ctx.quick else USERS
    generated = SequenceDataset.from_log(
        generate_log(
            SyntheticConfig(
                # 5-core filtering keeps 60-85 % of them, depending on the seed.
                num_users=2 * users,
                num_items=ITEMS,
                num_interests=16,
                mean_length=10,
                seed=ctx.seed,
            )
        ),
    )
    if generated.num_users < users:
        raise ValueError(f"seed {ctx.seed} left {generated.num_users} users, need {users}")
    # Exactly ``users`` users (whole batches of 128) and an ``ITEMS``-row
    # catalogue on every seed, so the work per epoch and per evaluation
    # pass does not move with what the filter happened to keep.
    dataset = SequenceDataset(
        train_sequences=generated.train_sequences[:users],
        valid_targets=generated.valid_targets[:users],
        test_targets=generated.test_targets[:users],
        num_items=ITEMS,
        name="train_paper",
    )
    model = build_model(
        "CL4SRec",
        dataset,
        ExperimentScale(
            dim=64, max_length=50, batch_size=BATCH_SIZE,
            epochs=epochs, pretrain_epochs=epochs, seed=ctx.seed,
        ),
    )
    return dataset, model, Evaluator(dataset, "test")


def _run_real_loops(outcome: Outcome, dataset, model, evaluator, evals: int) -> dict:
    """One call each of the two training loops, then ``evals`` passes.

    Returns the timed (warm-up dropped) durations per phase plus what
    the correctness checks need.
    """
    obs = BenchObserver()
    started = clock()
    pretrain_contrastive(model, dataset, model.cl_config.pretrain, rng=model._rng, obs=obs)
    pretrain = unit_durations(started, obs.stamps("pretrain_epoch"))
    started = clock()
    train_next_item_model(model, dataset, model.config.train, rng=model._rng, obs=obs)
    finetune = unit_durations(started, obs.stamps("train_epoch"))

    passes, ndcg, users = [], 0.0, 0
    for __ in range(evals):
        started = clock()
        result = evaluator.evaluate(model)
        passes.append(clock() - started)
        ndcg, users = result["NDCG@10"], result.num_users
    for name, event in (("pretrain", "pretrain_epoch"), ("finetune", "train_epoch")):
        losses = obs.field(event, "loss")
        outcome.check(
            f"{name} losses finite and falling",
            all_finite(losses) and losses[-1] < losses[0],
            f"first {losses[0]:.4f} last {losses[-1]:.4f}",
        )
    outcome.attempted += len(pretrain) + len(finetune) + len(passes)
    return {
        "pretrain": pretrain[1:], "pretrain_warmup": pretrain[0],
        "finetune": finetune[1:], "finetune_warmup": finetune[0],
        "eval": passes[1:], "eval_warmup": passes[0],
        "pretrain_sequences": obs.field("pretrain_epoch", "sequences")[-1],
        "finetune_sequences": obs.field("train_epoch", "sequences")[-1],
        "eval_users": users,
        "ndcg": ndcg,
    }


def _rates(real: dict) -> dict:
    pretrain, finetune = best_of(real["pretrain"]), best_of(real["finetune"])
    return {
        "pretrain_seq_per_s": real["pretrain_sequences"] / pretrain,
        "finetune_seq_per_s": real["finetune_sequences"] / finetune,
        "train_seq_per_s": (real["pretrain_sequences"] + real["finetune_sequences"])
        / (pretrain + finetune),
        "eval_users_per_s": real["eval_users"] / best_of(real["eval"]),
    }


def run_end_to_end(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    epochs = 1 + ctx.units(TIMED_EPOCHS)
    (dataset, model, evaluator), setups = timed_setups(
        lambda: _build(ctx, epochs), lambda built: None
    )
    real = _run_real_loops(outcome, dataset, model, evaluator, 1 + ctx.units(TIMED_EVALS))
    rates = _rates(real)

    pop = Pop().fit(dataset)
    pop_ndcg = evaluator.evaluate(pop)["NDCG@10"]
    outcome.check("ndcg_at_10 beats Pop", real["ndcg"] > pop_ndcg,
                  f"CL4SRec {real['ndcg']:.4f} vs Pop {pop_ndcg:.4f}")

    outcome.metrics = {
        "setup_s": stats.median(setups),
        "op_ms": best_of(real["eval"]) * 1e3,
        "throughput_per_s": rates["train_seq_per_s"],
    }
    outcome.row("dataset.users", dataset.num_users, "count")
    outcome.row("dataset.items", dataset.num_items, "count")
    outcome.timing_rows("pretrain_epoch", real["pretrain"], 1.0, "s")
    outcome.timing_rows("finetune_epoch", real["finetune"], 1.0, "s")
    outcome.timing_rows("eval_pass", real["eval"])
    outcome.row("pretrain_seq_per_s", rates["pretrain_seq_per_s"], "seq/s", len(real["pretrain"]))
    outcome.row("finetune_seq_per_s", rates["finetune_seq_per_s"], "seq/s", len(real["finetune"]))
    outcome.row("eval_users_per_s", rates["eval_users_per_s"], "users/s", len(real["eval"]))
    outcome.row("ndcg_at_10", real["ndcg"], "-", real["eval_users"], f"Pop {pop_ndcg:.4f}")
    return outcome


def _optimizer(params, config, num_batches: int):
    """The optimizer trio exactly as the real loops build it."""
    optimizer = Adam(params, lr=config.learning_rate)
    schedule = LinearDecaySchedule(
        optimizer,
        total_steps=max(1, config.epochs * num_batches),
        final_factor=config.lr_final_factor,
    )
    return optimizer, schedule, GradientClipper(params, config.clip_norm)


def _step_loop(tracer: Tracer, model, loader, loss_of, names: dict, params, config) -> dict:
    """A benchmark-driven copy of one training loop, one span per layer call.

    Same loader, optimizer, schedule and clipper as the real loop; what
    the real loop adds on top (obs, history, runtime hooks, hand-off) is
    the residual reported against it.
    """
    optimizer, schedule, clipper = _optimizer(params, config, loader.num_batches)
    epoch_seconds, pad_shares = [], []
    model.train()
    for __ in range(TRACED_STEP_EPOCHS):
        batches = loader.epoch()
        spent = 0.0
        while True:
            started = clock()
            with tracer.span(names["data"]) as data_span:
                batch = next(batches, None)
            if batch is None:
                tracer.discard(data_span)  # the epoch-ending next() built nothing
                break
            with tracer.span(names["forward"]):
                loss = loss_of(batch)
                loss.item()
            optimizer.zero_grad()
            with tracer.span(names["backward"]):
                loss.backward()
            with tracer.span("nn.optim_step"):
                clipper.clip()
                optimizer.step()
                schedule.step()
            spent += clock() - started
            tokens = batch.view_a if hasattr(batch, "view_a") else batch.inputs
            pad_shares.append(float((tokens == 0).mean()))
        epoch_seconds.append(spent)
    model.eval()
    return {"epoch_seconds": epoch_seconds, "pad_share": stats.median(pad_shares)}


def run_traced(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    tracer = Tracer()
    dataset, model, evaluator = _build(ctx, 1 + TRACED_REAL_UNITS)
    real = _run_real_loops(outcome, dataset, model, evaluator, 1 + TRACED_REAL_UNITS)
    rates = _rates(real)
    traced_started = clock()

    def traced_pair_sampler(sequence, rng):
        with tracer.span("augment.pair"):
            return model.pair_sampler(sequence, rng)

    pretrain_config, train_config = model.cl_config.pretrain, model.config.train
    contrastive = _step_loop(
        tracer, model,
        ContrastiveBatchLoader(
            dataset, traced_pair_sampler, pretrain_config.max_length,
            pretrain_config.batch_size, model._rng, pipeline=pretrain_config.pipeline,
        ),
        lambda batch: model.contrastive_loss(batch)[0],
        {"data": "data.contrastive_batch", "forward": "core.contrastive_forward",
         "backward": "nn.contrastive_backward"},
        list(model.contrastive_parameters()), pretrain_config,
    )
    supervised = _step_loop(
        tracer, model,
        NextItemBatchLoader(
            dataset, train_config.max_length, train_config.batch_size, model._rng,
            pipeline=train_config.pipeline,
        ),
        model.sequence_loss,
        {"data": "data.next_item_batch", "forward": "models.sequence_forward",
         "backward": "nn.sequence_backward"},
        list(model.parameters()), train_config,
    )

    users = evaluator.dataset.evaluation_users("test")
    scoring = []
    for start in range(0, len(users), evaluator.batch_size):
        with tracer.span("eval.score") as span:
            candidate_scores(model, dataset, users[start:start + evaluator.batch_size])
        scoring.append(span.duration)
    traced_seconds = clock() - traced_started
    eval_pass = stats.median(real["eval"])

    def span_ms(name: str) -> float:
        return stats.median(tracer.durations(name)) * 1e3

    pairs_per_batch = len(tracer.durations("augment.pair")) / len(
        tracer.durations("data.contrastive_batch")
    )
    outcome.metrics = {
        "data.contrastive_batch_ms": span_ms("data.contrastive_batch"),
        "data.next_item_batch_ms": span_ms("data.next_item_batch"),
        "augment.pair_ms": span_ms("augment.pair") * pairs_per_batch,
        "data.pad_share": (contrastive["pad_share"] + supervised["pad_share"]) / 2,
        "core.contrastive_forward_ms": span_ms("core.contrastive_forward"),
        "nn.contrastive_backward_ms": span_ms("nn.contrastive_backward"),
        "models.sequence_forward_ms": span_ms("models.sequence_forward"),
        "nn.sequence_backward_ms": span_ms("nn.sequence_backward"),
        "nn.optim_step_ms": span_ms("nn.optim_step"),
        "core.loop_residual_share": 1.0
        - stats.median(contrastive["epoch_seconds"]) / stats.median(real["pretrain"]),
        "models.loop_residual_share": 1.0
        - stats.median(supervised["epoch_seconds"]) / stats.median(real["finetune"]),
        "eval.score_ms_per_user": sum(scoring) / len(users) * 1e3,
        "eval.rank_self_ms_per_user": (eval_pass - sum(scoring)) / len(users) * 1e3,
        "core.pretrain_seq_per_s": rates["pretrain_seq_per_s"],
        "models.finetune_seq_per_s": rates["finetune_seq_per_s"],
        "eval.users_per_s": rates["eval_users_per_s"],
        "eval.ndcg_at_10": real["ndcg"],
        "core.pretrain_warmup_s": real["pretrain_warmup"],
        "models.finetune_warmup_s": real["finetune_warmup"],
        "eval.warmup_s": real["eval_warmup"],
        "trace.overhead_share": overhead_share(tracer, traced_seconds),
    }
    outcome.check("traced spans recorded", len(tracer.spans) > 0)
    return outcome


def run(ctx: RunContext) -> Outcome:
    return run_traced(ctx) if ctx.trace else run_end_to_end(ctx)
