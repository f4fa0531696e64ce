"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro table1
    python -m repro table2 --datasets beauty toys --preset smoke
    python -m repro figure4 --dataset yelp --rates 0.1 0.5 0.9
    python -m repro figure6 --dataset beauty --output fig6.md
    python -m repro ablation --which temperature
    python -m repro train --dataset beauty --checkpoint-dir ckpts
    python -m repro train --dataset beauty --checkpoint-dir ckpts --resume
    python -m repro train --dataset beauty --obs-dir runs/beauty
    python -m repro stats runs/beauty
    python -m repro serve --checkpoint ckpts/joint --requests-file reqs.jsonl
    python -m repro serve --checkpoint ckpts/joint --port 8080
    python -m repro serve --checkpoint ckpts/joint --port 8080 \
        --deadline-ms 100 --max-inflight 32 --watch-checkpoints
    python -m repro recommend --checkpoint ckpts/joint --user 42 --k 10
    python -m repro chaos --checkpoint ckpts/joint
    python -m repro index --checkpoint ckpts/joint --index ivf_pq \
        --output items.idx.npz
    python -m repro serve --checkpoint ckpts/joint --port 8080 \
        --index-path items.idx.npz --nprobe 8 --rerank 200

``train`` runs CL4SRec under the fault-tolerant runtime: crash-safe
rotating checkpoints, SIGTERM/SIGINT flush-and-exit (exit code 3), and
``--resume`` to continue an interrupted run bit-for-bit.  See
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import time

from repro.experiments.ablations import (
    run_joint_vs_pretrain,
    run_projection_ablation,
    run_temperature_ablation,
)
from repro.experiments.config import PRESETS, ExperimentScale
from repro.experiments.convergence import run_convergence
from repro.experiments.figure4 import PAPER_RATE_GRID, run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import PAPER_FRACTIONS, run_figure6
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.retrieval import INDEX_KINDS, IndexBuildError, IndexMismatchError

#: Exit code of ``train`` when interrupted (checkpoint flushed; re-run
#: with ``--resume``).  Distinct from 0/1 so wrapper scripts can retry.
EXIT_INTERRUPTED = 3


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    scale = PRESETS[args.preset]
    overrides = {}
    for field in ("dataset_scale", "dim", "max_length", "epochs", "pretrain_epochs", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return scale.with_overrides(**overrides) if overrides else scale


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="smoke",
        help="scale preset (default: smoke)",
    )
    parser.add_argument("--dataset-scale", dest="dataset_scale", type=float)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--max-length", dest="max_length", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", help="also write the markdown to this file")


def _add_serving_arguments(
    parser: argparse.ArgumentParser, checkpoint_required: bool = True
) -> None:
    """Flags shared by ``serve`` and ``recommend``: checkpoint + model."""
    parser.add_argument(
        "--checkpoint",
        required=checkpoint_required,
        help="checkpoint directory (newest valid archive) or .npz file",
    )
    parser.add_argument(
        "--model",
        default="CL4SRec",
        help="registered model name matching the checkpoint (default: CL4SRec)",
    )
    parser.add_argument("--dataset", default="beauty")
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="smoke",
        help="scale preset the checkpoint was trained with (default: smoke)",
    )
    parser.add_argument("--dataset-scale", dest="dataset_scale", type=float)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--max-length", dest="max_length", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--max-batch-size", dest="max_batch_size", type=int, default=256
    )
    parser.add_argument("--cache-size", dest="cache_size", type=int, default=4096)
    parser.add_argument(
        "--deadline-ms",
        dest="deadline_ms",
        type=float,
        default=None,
        help="default per-request latency budget; requests without their "
        "own deadline_ms degrade/504 past it (see docs/SERVING.md)",
    )
    parser.add_argument(
        "--no-resilience",
        dest="resilience",
        action="store_false",
        help="disable the resilience layer (deadlines, circuit breaker, "
        "degraded-mode fallback) — the PR-2 fail-hard behaviour",
    )
    _add_index_arguments(parser)


def _add_index_arguments(parser: argparse.ArgumentParser) -> None:
    """Retrieval-index knobs (docs/RETRIEVAL.md), shared with ``index``."""
    parser.add_argument(
        "--index",
        default="exact",
        choices=sorted(INDEX_KINDS),
        help="retrieval index kind: exact (default, bit-identical dense "
        "path), ivf, ivf_pq or ivf_flat (see docs/RETRIEVAL.md)",
    )
    parser.add_argument(
        "--index-path",
        dest="index_path",
        default=None,
        help="load a prebuilt 'repro index' artifact (its kind wins over "
        "--index; verified against the live model's matrix)",
    )
    parser.add_argument(
        "--nprobe",
        type=int,
        default=None,
        help="IVF cells probed per query (exactness/latency knob)",
    )
    parser.add_argument(
        "--rerank",
        type=int,
        default=None,
        help="exact-rescore shortlist size for quantized indexes "
        "(default: max(10k, 100))",
    )
    parser.add_argument(
        "--nlist",
        type=int,
        default=None,
        help="IVF cell count (default: sqrt(num_items), clamped)",
    )
    parser.add_argument(
        "--pq-m",
        dest="pq_m",
        type=int,
        default=None,
        help="product-quantization subspaces; must divide the embedding "
        "dim (ivf_pq only, default: 8)",
    )


class _SetupError(Exception):
    """A command could not be set up from its arguments.

    :func:`main` prints ``<command>: <message>`` and returns 2.
    """


@contextlib.contextmanager
def _setup():
    """Turn what building a config, runtime, engine or index raises into one line.

    ``ValueError`` covers config validation (:class:`ServeConfig`,
    ``LoadTestConfig``, the training runtime) and ``CheckpointError``;
    ``TypeError`` is the engine's "cannot be served".
    """
    try:
        yield
    except (ValueError, TypeError, IndexBuildError, IndexMismatchError) as error:
        raise _SetupError(str(error)) from error


def _build_engine(args: argparse.Namespace, **overrides):
    """Dataset + model + checkpoint → a ready RecommendationEngine."""
    from repro.serve import ServeConfig

    with _setup():
        return ServeConfig.from_args(args).build_engine(**overrides)


def _run_index(args: argparse.Namespace) -> int:
    """The ``index`` subcommand: build + save a retrieval artifact."""
    import json

    from repro.serve import ServeConfig

    if args.index_path is not None:
        print("index: --index-path is an input of serve, not of index; "
              "use --output for the artifact destination", file=sys.stderr)
        return 2
    with _setup():
        config = ServeConfig.from_args(args)
        # index=None: the engine's default exact index only adopts the
        # matrix, so the configured index is built, and timed, once.
        matrix = config.build_engine(resilience=None, index=None).index.matrix
        started = time.time()
        index = config.build_index().build(matrix)
        built_in = time.time() - started
        path = index.save(args.output)
    stats = index.stats()
    stats["build_seconds"] = round(built_in, 3)
    stats["artifact"] = path
    stats["artifact_bytes"] = os.path.getsize(path)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: batch-score a file or run HTTP."""
    import json

    from repro.serve import RecommendationServer, read_requests_file

    if (args.requests_file is None) == (args.port is None):
        print("serve: provide exactly one of --requests-file or --port",
              file=sys.stderr)
        return 2
    engine = _build_engine(args)

    if args.requests_file is not None:
        requests = read_requests_file(args.requests_file)
        results = engine.recommend_batch(requests)
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in results]
        if args.output:
            with open(args.output, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            print(f"wrote {len(lines)} results to {args.output}")
        else:
            for line in lines:
                print(line)
        snapshot = engine.metrics.snapshot()
        print(
            f"served {len(results)} requests; cache hit rate "
            f"{snapshot['cache']['hit_rate']:.2f}; total p50 "
            f"{snapshot['latency']['total']['p50_ms']:.2f}ms",
            file=sys.stderr,
        )
        if args.metrics_output:
            with open(args.metrics_output, "w") as handle:
                handle.write(engine.metrics.to_json() + "\n")
            print(f"metrics written to {args.metrics_output}", file=sys.stderr)
        return 0

    server = RecommendationServer(
        engine, host=args.host, port=args.port, max_inflight=args.max_inflight
    )
    if args.watch_checkpoints:
        if not os.path.isdir(args.checkpoint):
            print(
                "serve: --watch-checkpoints needs --checkpoint to be a "
                "checkpoint directory, not a single archive",
                file=sys.stderr,
            )
            server.httpd.server_close()
            return 2
        server.watch_checkpoints(args.checkpoint, interval_s=args.watch_interval)
    host, port = server.address
    print(f"serving {args.model} on http://{host}:{port} "
          f"(POST /recommend, POST /admin/reload, GET /metrics, GET /health)")
    # SIGTERM must unwind through the finally below, so the listener
    # closes and --metrics-output is written.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        engine.close()
        if args.metrics_output:
            with open(args.metrics_output, "w") as handle:
                handle.write(engine.metrics.to_json() + "\n")
    return 0


def _run_loadtest(args: argparse.Namespace) -> int:
    """The ``loadtest`` subcommand: replay synthetic traffic, gate invariants.

    Targets a running server (``--url``) or self-hosts one from
    ``--checkpoint`` on an ephemeral port.  Exit status 1 means a
    serving invariant was violated (dropped responses, refusals outside
    the shed/deadline envelope, model_version regressions, metrics
    accounting drift) — see docs/SERVING.md.
    """
    import json
    import threading

    from repro.data.synthetic import synthesize_trace
    from repro.loadtest import Client, LoadTestConfig, run_loadtest
    from repro.loadtest.client import split_url

    if not (args.url or args.checkpoint):
        print("loadtest: provide --url (running server) or --checkpoint "
              "(self-hosted)", file=sys.stderr)
        return 2
    with _setup():
        config = LoadTestConfig(
            threads=args.threads,
            timeout_s=args.timeout_s,
            deadline_ms=args.request_deadline_ms,
            pace=args.pace,
            pace_speedup=args.pace_speedup,
        )
        host, port = split_url(args.url) if args.url else (None, None)
    server = engine = None
    if args.url:
        with Client(host, port, args.timeout_s) as client:
            health = client.get("/health")
        if health.error is not None:
            raise _SetupError(f"cannot reach {args.url}: {health.error}")
        user_pool = args.user_pool or health.body.get("num_users") or 1000
        num_items = args.num_items or health.body.get("num_items") or 500
    else:
        from repro.serve import RecommendationServer

        engine = _build_engine(args)
        server = RecommendationServer(
            engine, host="127.0.0.1", port=0, max_inflight=args.max_inflight
        )
        host, port = server.address
        threading.Thread(target=server.serve_forever, daemon=True).start()
        user_pool = args.user_pool or engine.dataset.num_users
        num_items = args.num_items or engine.dataset.num_items

    events = args.events if args.events is not None else (
        200 if args.quick else 10_000
    )
    trace = synthesize_trace(
        num_events=events,
        user_pool=user_pool,
        num_items=num_items,
        hot_users=min(args.hot_users, user_pool),
        hot_fraction=args.hot_fraction,
        batch_fraction=args.batch_fraction,
        k=args.k,
        seed=args.trace_seed,
    )
    try:
        result = run_loadtest(trace, host, port, config)
    finally:
        if server is not None:  # self-hosted: the engine is ours too
            server.shutdown()
            engine.close()
    report = result.report()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(text)
    latency = report["latency"]
    print(
        f"loadtest: {report['events']} events, "
        f"{report['sequences_completed']} sequences, "
        f"{report['qps']:.1f} qps, p50 {latency['p50_ms']:.2f}ms, "
        f"p99 {latency['p99_ms']:.2f}ms — "
        f"{'OK' if result.ok else 'INVARIANT VIOLATIONS'}",
        file=sys.stderr,
    )
    for violation in result.violations:
        print(f"loadtest: VIOLATION: {violation}", file=sys.stderr)
    return 0 if result.ok else 1


def _run_chaos(args: argparse.Namespace) -> int:
    """The ``chaos`` subcommand: deterministic serving-chaos scenario.

    Builds an engine with a fast-recovery breaker and a shared
    :class:`FaultInjector`, starts a real HTTP server on a background
    thread, runs :func:`repro.loadtest.chaos.run_chaos` against it, and
    exits non-zero if any invariant failed.
    """
    import json
    import tempfile
    import threading

    from repro.loadtest import run_chaos
    from repro.runtime.faults import FaultInjector
    from repro.serve import BreakerConfig, RecommendationServer, ResilienceConfig

    faults = FaultInjector(seed=args.seed or 0)
    resilience = ResilienceConfig(
        default_deadline_ms=args.deadline_ms,
        breaker=BreakerConfig(
            window=16,
            min_calls=4,
            failure_threshold=0.5,
            reset_timeout_s=1.0,
            half_open_probes=2,
        ),
    )
    engine = _build_engine(args, resilience=resilience, faults=faults)
    server = RecommendationServer(
        engine,
        host="127.0.0.1",
        port=args.port,
        max_inflight=args.max_inflight,
        retry_after_s=0.1,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        report = run_chaos(server, faults, workdir)
    finally:
        server.shutdown()
    print(report.to_markdown())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if report.ok else 1


def _run_online(args: argparse.Namespace) -> int:
    """The ``online`` subcommand: the streaming train/serve loop.

    Consumes a synthetic traffic trace round by round: fine-tunes the
    encoder incrementally on the replay buffer, shadow-evaluates the
    candidate against the currently serving weights on held-out stream
    traffic, and hot-swaps it into the engine only when the promotion
    gate passes (docs/ONLINE_LEARNING.md).  With ``--port`` a live
    HTTP server answers requests throughout, and promotions go through
    its serialized reload path.  Deterministic at fixed seeds: same
    ``--loop-seed``/``--trace-seed`` ⇒ same decisions and shadow
    metrics.  Exit status 1 means a promotion failed its swap
    self-check (infrastructure trouble, not a gate refusal).
    """
    import json
    import threading

    from repro.data.synthetic import synthesize_trace
    from repro.models.registry import build_model
    from repro.obs import RunObserver
    from repro.online import (
        FineTuneConfig,
        GateConfig,
        ModelVersionStore,
        OnlineLoop,
        OnlineLoopConfig,
    )
    from repro.online.shadow import REASON_SWAP_FAILED
    from repro.serve import ServeConfig

    with _setup():
        config = ServeConfig.from_args(args)
        engine = config.build_engine()
    dataset = engine.dataset
    trainer = build_model(
        config.model, dataset, config.scale(), cl_weight=args.cl_weight
    )

    rounds = args.rounds
    trace_events = (
        args.trace_events
        if args.trace_events is not None
        else rounds * args.events_per_round
    )
    trace = synthesize_trace(
        num_events=trace_events,
        user_pool=dataset.num_users,
        num_items=dataset.num_items,
        hot_users=min(args.hot_users, dataset.num_users),
        batch_fraction=args.batch_fraction,
        k=args.shadow_k,
        seed=args.trace_seed,
    )

    round_checkpoint_dir = None
    if not args.no_round_checkpoints:
        round_checkpoint_dir = args.round_checkpoint_dir or os.path.join(
            args.store_dir, "rounds"
        )
    with _setup():  # an unknown --gate-metric refuses here
        loop_config = OnlineLoopConfig(
            rounds=rounds,
            events_per_round=args.events_per_round,
            buffer_capacity=args.buffer_capacity,
            holdout_capacity=args.holdout_capacity,
            holdout_every=args.holdout_every,
            min_sequence_length=args.min_sequence_length,
            shadow_k=args.shadow_k,
            shadow_requests=args.shadow_requests,
            seed=args.loop_seed,
            gate=GateConfig(
                metrics=tuple(args.gate_metric or ("HR@10", "NDCG@10")),
                epsilon=args.gate_epsilon,
                min_shadow_users=args.min_shadow_users,
                min_new_sequences=args.min_new_sequences,
            ),
            finetune=FineTuneConfig(
                epochs=args.epochs_per_round,
                batch_size=args.train_batch_size,
                learning_rate=args.learning_rate,
                max_length=config.scale().max_length,
                workers=args.train_workers,
                checkpoint_dir=round_checkpoint_dir,
            ),
        )

    obs = None
    if args.obs_dir:
        obs = RunObserver.to_directory(
            args.obs_dir,
            meta={
                "command": "online",
                "rounds": rounds,
                "loop_seed": args.loop_seed,
                "trace_seed": args.trace_seed,
            },
        )
        engine.observer = obs  # model_swap / rollback events join the stream

    server = None
    if args.port is not None:
        from repro.serve import RecommendationServer

        server = RecommendationServer(
            engine,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        print(f"online: serving live traffic on http://{host}:{port}",
              file=sys.stderr)

    store = ModelVersionStore(args.store_dir, keep=args.store_keep)
    loop = OnlineLoop(
        engine, trainer, trace, store, loop_config, obs=obs, server=server
    )
    try:
        result = loop.run()
    finally:
        if server is not None:
            server.shutdown()
        engine.close()
        if obs is not None:
            obs.close()

    for record in result.rounds:
        deltas = (record.shadow or {}).get("deltas") or {}
        delta_text = " ".join(
            f"Δ{name}={deltas[name]:+.4f}"
            for name in loop_config.gate.metrics
            if name in deltas
        )
        print(
            f"online: round {record.round} → {record.decision.upper()} "
            f"({record.reason}) model_version={record.model_version} "
            f"buffer={record.buffer_depth} shadow_users={record.shadow_users}"
            + (f" {delta_text}" if delta_text else ""),
            file=sys.stderr,
        )
    print(
        f"online: {result.promotions} promoted, {result.refusals} refused "
        f"over {len(result.rounds)} rounds; serving model_version="
        f"{result.final_model_version}; versions in {store.directory}",
        file=sys.stderr,
    )
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(text)
    failed_swaps = any(
        record.reason == REASON_SWAP_FAILED for record in result.rounds
    )
    return 1 if failed_swaps else 0


def _run_recommend(args: argparse.Namespace) -> int:
    """The ``recommend`` subcommand: one request, JSON to stdout."""
    import json

    engine = _build_engine(args)
    result = engine.recommend(
        user=args.user,
        sequence=args.sequence,
        k=args.k,
        exclude_seen=args.exclude_seen,
    )
    print(json.dumps(result.to_dict(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CL4SRec reproduction — regenerate the paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_t1 = sub.add_parser("table1", help="dataset statistics (Table 1)")
    p_t1.add_argument("--scale", type=float, default=1.0)
    p_t1.add_argument("--seed", type=int, default=0)
    p_t1.add_argument("--output")

    p_t2 = sub.add_parser("table2", help="overall comparison (Table 2)")
    p_t2.add_argument(
        "--datasets", nargs="+", default=["beauty", "sports", "toys", "yelp"]
    )
    p_t2.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="subset of methods (default: all seven)",
    )
    _add_scale_arguments(p_t2)

    p_f4 = sub.add_parser("figure4", help="augmentation sweep (Figure 4)")
    p_f4.add_argument("--dataset", default="beauty")
    p_f4.add_argument("--rates", nargs="+", type=float, default=list(PAPER_RATE_GRID))
    p_f4.add_argument(
        "--operators", nargs="+", default=["crop", "mask", "reorder"]
    )
    _add_scale_arguments(p_f4)

    p_f5 = sub.add_parser("figure5", help="composition study (Figure 5)")
    p_f5.add_argument("--dataset", default="beauty")
    _add_scale_arguments(p_f5)

    p_f6 = sub.add_parser("figure6", help="data sparsity (Figure 6)")
    p_f6.add_argument("--dataset", default="beauty")
    p_f6.add_argument(
        "--fractions", nargs="+", type=float, default=list(PAPER_FRACTIONS)
    )
    p_f6.add_argument("--gamma", type=float, default=0.5)
    _add_scale_arguments(p_f6)

    p_ab = sub.add_parser("ablation", help="extension ablations (E-A1..E-A3)")
    p_ab.add_argument(
        "--which",
        choices=["projection", "temperature", "joint"],
        default="projection",
    )
    p_ab.add_argument("--dataset", default="beauty")
    _add_scale_arguments(p_ab)

    p_cv = sub.add_parser(
        "convergence", help="warm-start convergence study (E-A4)"
    )
    p_cv.add_argument("--dataset", default="beauty")
    p_cv.add_argument("--bar-fraction", dest="bar_fraction", type=float, default=0.9)
    _add_scale_arguments(p_cv)

    p_tr = sub.add_parser(
        "train", help="fault-tolerant CL4SRec training (checkpoints + resume)"
    )
    p_tr.add_argument("--dataset", default="beauty")
    p_tr.add_argument(
        "--mode", choices=["joint", "pretrain_finetune"], default="joint"
    )
    p_tr.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        default="checkpoints",
        help="directory for rotating crash-safe checkpoints",
    )
    p_tr.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest valid checkpoint in --checkpoint-dir",
    )
    p_tr.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=int,
        default=1,
        help="checkpoint every N epochs (0 = only the final/interrupt flush)",
    )
    p_tr.add_argument(
        "--keep", type=int, default=3, help="checkpoints retained per stage"
    )
    p_tr.add_argument(
        "--no-guard",
        dest="guard",
        action="store_false",
        help="disable the NaN/divergence rollback guard",
    )
    p_tr.add_argument(
        "--track-dir",
        dest="track_dir",
        default=None,
        help="also record the run in this RunRegistry directory",
    )
    p_tr.add_argument(
        "--preempt-at",
        dest="preempt_at",
        type=int,
        default=None,
        help="inject a simulated preemption after N steps (fault testing)",
    )
    p_tr.add_argument(
        "--obs-dir",
        dest="obs_dir",
        default=None,
        help="write a structured obs.jsonl event stream (training, eval, "
        "checkpoint events) into this directory; summarize it later with "
        "'repro stats'",
    )
    p_tr.add_argument(
        "--profile",
        action="store_true",
        help="enable scoped nn profiling timers (matmul/attention/encoder); "
        "off by default — also enabled by REPRO_PROFILE=1",
    )
    p_tr.add_argument(
        "--workers",
        type=int,
        default=0,
        help="data-parallel training workers: 0 (default) computes "
        "gradients in-process, byte-compatible with the golden fixtures; "
        "N >= 1 takes them from repro.train.parallel — bit-reproducible "
        "at a fixed worker count (see docs/SCALING.md 'Training at scale')",
    )
    _add_scale_arguments(p_tr)

    p_st = sub.add_parser(
        "stats", help="summarize a run's obs.jsonl into terminal tables"
    )
    p_st.add_argument(
        "run_dir",
        help="run directory containing obs.jsonl (or a direct path to one)",
    )

    p_sv = sub.add_parser(
        "serve", help="serve top-k recommendations from a checkpoint"
    )
    _add_serving_arguments(p_sv)
    p_sv.add_argument(
        "--requests-file",
        dest="requests_file",
        help="JSONL request file to score in batch (mutually exclusive "
        "with --port)",
    )
    p_sv.add_argument(
        "--port",
        type=int,
        default=None,
        help="run an HTTP server on this port instead of batch mode",
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument(
        "--output", help="write batch results (JSONL) here instead of stdout"
    )
    p_sv.add_argument(
        "--metrics-output",
        dest="metrics_output",
        help="write the serving metrics snapshot (JSON) here on exit",
    )
    p_sv.add_argument(
        "--max-inflight",
        dest="max_inflight",
        type=int,
        default=64,
        help="admitted concurrent scoring requests before load shedding "
        "(HTTP 503 + Retry-After)",
    )
    p_sv.add_argument(
        "--watch-checkpoints",
        dest="watch_checkpoints",
        action="store_true",
        help="poll the --checkpoint directory and hot-reload newer steps "
        "(atomic swap with self-check and rollback)",
    )
    p_sv.add_argument(
        "--watch-interval",
        dest="watch_interval",
        type=float,
        default=2.0,
        help="checkpoint watcher poll interval in seconds (default: 2)",
    )

    p_lt = sub.add_parser(
        "loadtest",
        help="replay synthetic traffic against a server and gate the "
        "serving invariants (docs/SERVING.md)",
    )
    _add_serving_arguments(p_lt, checkpoint_required=False)
    p_lt.add_argument(
        "--url",
        default=None,
        help="target a running server (http://host:port); omit to "
        "self-host from --checkpoint on an ephemeral port",
    )
    p_lt.add_argument(
        "--events",
        type=int,
        default=None,
        help="trace events to replay (default: 10000, or 200 with --quick)",
    )
    p_lt.add_argument(
        "--quick",
        action="store_true",
        help="small smoke-sized trace (CI's live-server-smoke job)",
    )
    p_lt.add_argument(
        "--threads", type=int, default=4,
        help="closed-loop client threads (default: 4)",
    )
    p_lt.add_argument(
        "--trace-seed", dest="trace_seed", type=int, default=0,
        help="traffic-trace seed (same seed ⇒ byte-identical trace)",
    )
    p_lt.add_argument(
        "--hot-users", dest="hot_users", type=int, default=200,
        help="Zipf head of returning users (default: 200)",
    )
    p_lt.add_argument(
        "--hot-fraction", dest="hot_fraction", type=float, default=0.6,
        help="probability a sequence belongs to a hot user (default: 0.6)",
    )
    p_lt.add_argument(
        "--batch-fraction", dest="batch_fraction", type=float, default=0.3,
        help="probability an event is a /recommend/batch call (default: 0.3)",
    )
    p_lt.add_argument(
        "--user-pool", dest="user_pool", type=int, default=None,
        help="hot-user id space (default: the server's num_users)",
    )
    p_lt.add_argument(
        "--num-items", dest="num_items", type=int, default=None,
        help="item-id space for cold sequences (default: the server's "
        "num_items)",
    )
    p_lt.add_argument("--k", type=int, default=10)
    p_lt.add_argument(
        "--request-deadline-ms", dest="request_deadline_ms", type=float,
        default=None,
        help="stamp this deadline budget onto every replayed payload",
    )
    p_lt.add_argument(
        "--timeout-s", dest="timeout_s", type=float, default=30.0,
        help="client HTTP timeout per request (default: 30)",
    )
    p_lt.add_argument(
        "--pace", action="store_true",
        help="open-loop replay honouring the trace's bursty arrival "
        "times instead of going flat out",
    )
    p_lt.add_argument(
        "--pace-speedup", dest="pace_speedup", type=float, default=1.0,
        help="divide arrival gaps by this factor under --pace",
    )
    p_lt.add_argument(
        "--max-inflight", dest="max_inflight", type=int, default=64,
        help="admission bound of the self-hosted server (ignored with "
        "--url)",
    )
    p_lt.add_argument("--output", help="write the JSON report here")

    p_on = sub.add_parser(
        "online",
        help="online learning loop: stream ingestion → incremental "
        "fine-tuning → shadow-gated live swap (docs/ONLINE_LEARNING.md)",
    )
    _add_serving_arguments(p_on)
    p_on.add_argument(
        "--rounds", type=int, default=1,
        help="ingest→train→gate→swap rounds to run (default: 1)",
    )
    p_on.add_argument(
        "--events-per-round", dest="events_per_round", type=int, default=200,
        help="traffic events consumed per round (default: 200)",
    )
    p_on.add_argument(
        "--trace-events", dest="trace_events", type=int, default=None,
        help="total trace length (default: rounds × events-per-round; "
        "shorter traces exhaust mid-loop and later rounds refuse with "
        "insufficient_data)",
    )
    p_on.add_argument(
        "--trace-seed", dest="trace_seed", type=int, default=0,
        help="traffic-trace seed (same seed ⇒ byte-identical stream)",
    )
    p_on.add_argument(
        "--loop-seed", dest="loop_seed", type=int, default=0,
        help="root seed of the per-round RNG spawn streams (default: 0)",
    )
    p_on.add_argument(
        "--hot-users", dest="hot_users", type=int, default=200,
        help="Zipf head of returning users in the trace (default: 200)",
    )
    p_on.add_argument(
        "--batch-fraction", dest="batch_fraction", type=float, default=0.3,
        help="probability a trace event is a batch call (default: 0.3)",
    )
    p_on.add_argument(
        "--store-dir", dest="store_dir", default="online-versions",
        help="ModelVersionStore directory: versioned checkpoints + the "
        "promote/refuse manifest (default: online-versions)",
    )
    p_on.add_argument(
        "--store-keep", dest="store_keep", type=int, default=8,
        help="version archives kept on disk; the manifest keeps every "
        "record (default: 8)",
    )
    p_on.add_argument(
        "--round-checkpoint-dir", dest="round_checkpoint_dir", default=None,
        help="TrainingRuntime checkpoints for mid-round crash recovery "
        "(default: <store-dir>/rounds)",
    )
    p_on.add_argument(
        "--no-round-checkpoints", dest="no_round_checkpoints",
        action="store_true",
        help="skip mid-round TrainingRuntime checkpoints",
    )
    p_on.add_argument(
        "--buffer-capacity", dest="buffer_capacity", type=int, default=2048,
        help="replay-buffer bound: most recent training sequences kept "
        "(default: 2048)",
    )
    p_on.add_argument(
        "--holdout-capacity", dest="holdout_capacity", type=int, default=512,
        help="shadow-holdout buffer bound (default: 512)",
    )
    p_on.add_argument(
        "--holdout-every", dest="holdout_every", type=int, default=4,
        help="every N-th ingested sequence feeds the shadow holdout "
        "instead of training (default: 4)",
    )
    p_on.add_argument(
        "--min-sequence-length", dest="min_sequence_length", type=int,
        default=3,
        help="drop streamed sequences shorter than this (default: 3)",
    )
    p_on.add_argument(
        "--epochs-per-round", dest="epochs_per_round", type=int, default=1,
        help="fine-tuning epochs over the replay buffer per round "
        "(default: 1)",
    )
    p_on.add_argument(
        "--train-batch-size", dest="train_batch_size", type=int, default=64,
        help="fine-tuning batch size (default: 64)",
    )
    p_on.add_argument(
        "--learning-rate", dest="learning_rate", type=float, default=5e-4,
        help="fine-tuning learning rate (default: 5e-4 — gentler than "
        "offline training, see docs/ONLINE_LEARNING.md)",
    )
    p_on.add_argument(
        "--cl-weight", dest="cl_weight", type=float, default=0.1,
        help="contrastive-loss weight λ during fine-tuning (default: 0.1)",
    )
    p_on.add_argument(
        "--train-workers", dest="train_workers", type=int, default=0,
        help="data-parallel workers for each fine-tuning round (0 = "
        "single-process; see docs/SCALING.md)",
    )
    p_on.add_argument(
        "--gate-metric", dest="gate_metric", action="append", default=None,
        help="metric the promotion gate checks (repeatable; default: "
        "HR@10 and NDCG@10)",
    )
    p_on.add_argument(
        "--gate-epsilon", dest="gate_epsilon", type=float, default=0.0,
        help="tolerated per-metric regression: promote iff candidate >= "
        "baseline - epsilon on every gated metric (default: 0.0)",
    )
    p_on.add_argument(
        "--min-shadow-users", dest="min_shadow_users", type=int, default=8,
        help="held-out users required before shadow deltas count "
        "(default: 8)",
    )
    p_on.add_argument(
        "--min-new-sequences", dest="min_new_sequences", type=int, default=4,
        help="fresh training sequences a round must ingest, else it "
        "refuses with insufficient_data (default: 4)",
    )
    p_on.add_argument(
        "--shadow-requests", dest="shadow_requests", type=int, default=64,
        help="held-out sessions replayed through old-vs-new engines "
        "(default: 64)",
    )
    p_on.add_argument(
        "--shadow-k", dest="shadow_k", type=int, default=10,
        help="top-k width of the shadow replay leg (default: 10)",
    )
    p_on.add_argument(
        "--port", type=int, default=None,
        help="also serve live HTTP traffic during the loop; promotions "
        "then swap through the server's serialized reload path",
    )
    p_on.add_argument("--host", default="127.0.0.1")
    p_on.add_argument(
        "--max-inflight", dest="max_inflight", type=int, default=64,
        help="admission bound of the live server (with --port)",
    )
    p_on.add_argument(
        "--obs-dir", dest="obs_dir", default=None,
        help="write structured obs.jsonl events (online_round, "
        "shadow_eval, online_promote/online_refuse) here",
    )
    p_on.add_argument("--output", help="write the JSON loop report here")

    p_ch = sub.add_parser(
        "chaos",
        help="serving chaos scenario: faults, shedding, hot reload, recovery",
    )
    _add_serving_arguments(p_ch)
    p_ch.add_argument(
        "--port",
        type=int,
        default=0,
        help="port for the chaos target server (default: ephemeral)",
    )
    p_ch.add_argument(
        "--max-inflight",
        dest="max_inflight",
        type=int,
        default=2,
        help="admission bound of the chaos target (small, to force shedding)",
    )
    p_ch.add_argument(
        "--workdir",
        default=None,
        help="scratch directory for reload-phase checkpoint copies",
    )
    p_ch.add_argument("--output", help="also write the JSON report here")

    p_rc = sub.add_parser(
        "recommend", help="one-shot top-k recommendation from a checkpoint"
    )
    _add_serving_arguments(p_rc)
    group = p_rc.add_mutually_exclusive_group(required=True)
    group.add_argument("--user", type=int, help="dataset user id")
    group.add_argument(
        "--sequence", nargs="+", type=int, help="raw item-id history"
    )
    p_rc.add_argument("--k", type=int, default=10)
    p_rc.add_argument(
        "--include-seen",
        dest="exclude_seen",
        action="store_false",
        help="allow already-seen items in the top-k",
    )

    p_ix = sub.add_parser(
        "index",
        help="build a retrieval-index artifact (IVF/PQ) from a checkpoint",
    )
    _add_serving_arguments(p_ix)
    p_ix.add_argument(
        "--output",
        required=True,
        help="artifact destination (.npz); serve it with --index-path",
    )

    p_rp = sub.add_parser(
        "report", help="stitch benchmarks/results/*.md into one report"
    )
    p_rp.add_argument(
        "--results-dir",
        dest="results_dir",
        default=os.path.join("benchmarks", "results"),
    )
    p_rp.add_argument("--output", default="REPORT.md")

    return parser


#: The checkpoint subdirectories (one runtime each) of a ``train`` mode.
_TRAIN_STAGES = {"joint": ("joint",), "pretrain_finetune": ("pretrain", "finetune")}


def _run_train(args: argparse.Namespace) -> int:
    """The ``train`` subcommand: CL4SRec under the fault-tolerant runtime."""
    from repro.core.trainer import pretrain_contrastive, train_joint
    from repro.data.registry import load_dataset
    from repro.models.registry import build_model
    from repro.models.training import train_next_item_model
    from repro.runtime import (
        CheckpointManager,
        FaultInjector,
        TrainingInterrupted,
        TrainingRuntime,
    )

    faults = None
    if args.preempt_at is not None:
        faults = FaultInjector().preempt(at=args.preempt_at)
    # Every flag is refused here, before the dataset and the model exist.
    with _setup():
        if args.workers < 0:
            raise ValueError(f"workers must be >= 0, got {args.workers}")
        runtimes = {
            stage: TrainingRuntime(
                CheckpointManager(
                    os.path.join(args.checkpoint_dir, stage), keep=args.keep
                ),
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
                guard=args.guard,
                faults=faults,
            )
            for stage in _TRAIN_STAGES[args.mode]
        }

    scale = _scale_from_args(args)
    dataset = load_dataset(args.dataset, scale=scale.dataset_scale, seed=scale.seed)
    model = build_model("CL4SRec", dataset, scale, mode=args.mode)
    # The data-parallel worker count (0 = single-process loops) reaches
    # every stage config the selected mode may run.
    model.cl_config.joint.workers = args.workers
    model.cl_config.pretrain.workers = args.workers
    model.cl_config.sasrec.train.workers = args.workers

    obs = None
    if args.obs_dir:
        from repro.obs import RunObserver

        obs = RunObserver.to_directory(
            args.obs_dir,
            meta={
                "command": "train",
                "dataset": args.dataset,
                "mode": args.mode,
                "dtype": str(model.param_dtype()),
                "workers": args.workers,
                "preset": args.preset,
                "seed": scale.seed,
            },
        )
    profiler = None
    if args.profile:
        from repro.obs import profiling

        profiler = profiling.enable()
    for runtime in runtimes.values():
        runtime.obs = obs

    started = time.time()
    try:
        try:
            if args.mode == "joint":
                losses = train_joint(
                    model,
                    dataset,
                    model.cl_config.joint,
                    rng=model._rng,
                    runtime=runtimes["joint"],
                    obs=obs,
                )
                final_loss = losses[-1] if losses else float("nan")
            else:
                model.pretrain_history = pretrain_contrastive(
                    model,
                    dataset,
                    model.cl_config.pretrain,
                    rng=model._rng,
                    runtime=runtimes["pretrain"],
                    obs=obs,
                )
                history = train_next_item_model(
                    model,
                    dataset,
                    model.cl_config.sasrec.train,
                    rng=model._rng,
                    runtime=runtimes["finetune"],
                    obs=obs,
                )
                final_loss = history.losses[-1] if history.losses else float("nan")
        except TrainingInterrupted as interrupted:
            print(f"interrupted: {interrupted}")
            print(
                f"re-run with --resume --checkpoint-dir {args.checkpoint_dir} "
                "to continue"
            )
            return EXIT_INTERRUPTED

        if obs is not None:
            from repro.eval.evaluator import Evaluator

            evaluator = Evaluator(dataset, split="test")
            result = evaluator.evaluate(model, obs=obs)
            print(
                "test eval: "
                + ", ".join(
                    f"{name}={value:.4f}"
                    for name, value in sorted(result.metrics.items())
                )
            )
    finally:
        if profiler is not None:
            from repro.obs import profiling

            if obs is not None:
                obs.event("profile_summary", scopes=profiler.summary())
            profiling.disable()
        if obs is not None:
            obs.close()
            print(f"observability events written to {obs.sink.path}")

    duration = time.time() - started
    for stage, runtime in runtimes.items():
        resumed = (
            f"resumed from epoch {runtime.resumed_from}"
            if runtime.resumed_from is not None
            else "fresh start"
        )
        rollbacks = runtime.guard.total_rollbacks if runtime.guard else 0
        print(
            f"[{stage}] {resumed}; checkpoints in "
            f"{runtime.manager.directory} (keep={runtime.manager.keep}); "
            f"divergence rollbacks: {rollbacks}"
        )
        if runtime.write_failures:
            print(f"[{stage}] WARNING: {len(runtime.write_failures)} checkpoint "
                  f"write(s) failed: {runtime.write_failures[-1]}")
    print(f"final training loss: {final_loss:.4f} ({duration:.1f}s)")

    if args.track_dir:
        from repro.experiments.tracking import RunRegistry

        registry = RunRegistry(args.track_dir)
        record = registry.record(
            experiment=f"train-{args.dataset}",
            params={
                "dataset": args.dataset,
                "mode": args.mode,
                "preset": args.preset,
                "dtype": str(model.param_dtype()),
                "resumed": any(
                    r.resumed_from is not None for r in runtimes.values()
                ),
            },
            metrics={"final_loss": float(final_loss)},
            duration_seconds=duration,
        )
        print(f"recorded {record.run_id} in {args.track_dir}")
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: summarize a run's obs.jsonl."""
    from repro.obs import summarize_run

    try:
        print(summarize_run(args.run_dir))
    except FileNotFoundError as error:
        raise _SetupError(str(error)) from error
    return 0


#: The subcommands that refuse bad input with one line and exit 2.
_COMMANDS = {
    "train": _run_train,
    "stats": _run_stats,
    "serve": _run_serve,
    "loadtest": _run_loadtest,
    "online": _run_online,
    "recommend": _run_recommend,
    "chaos": _run_chaos,
    "index": _run_index,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()

    if args.command in _COMMANDS:
        try:
            return _COMMANDS[args.command](args)
        except _SetupError as error:
            print(f"{args.command}: {error}", file=sys.stderr)
            return 2
    if args.command == "table1":
        result = run_table1(scale=args.scale, seed=args.seed)
    elif args.command == "table2":
        kwargs = {"datasets": tuple(args.datasets), "scale": _scale_from_args(args)}
        if args.models:
            kwargs["models"] = tuple(args.models)
        result = run_table2(**kwargs)
    elif args.command == "figure4":
        result = run_figure4(
            dataset_name=args.dataset,
            operators=tuple(args.operators),
            rates=tuple(args.rates),
            scale=_scale_from_args(args),
        )
    elif args.command == "figure5":
        result = run_figure5(dataset_name=args.dataset, scale=_scale_from_args(args))
    elif args.command == "figure6":
        result = run_figure6(
            dataset_name=args.dataset,
            fractions=tuple(args.fractions),
            scale=_scale_from_args(args),
            gamma=args.gamma,
        )
    elif args.command == "ablation":
        runner = {
            "projection": run_projection_ablation,
            "temperature": run_temperature_ablation,
            "joint": run_joint_vs_pretrain,
        }[args.which]
        result = runner(args.dataset, scale=_scale_from_args(args))
    elif args.command == "convergence":
        result = run_convergence(
            args.dataset,
            scale=_scale_from_args(args),
            bar_fraction=args.bar_fraction,
        )
    elif args.command == "report":
        from repro.experiments.report import build_report

        report = build_report(args.results_dir)
        report.write(args.output)
        print(f"wrote {args.output} ({len(report.included)} artifacts)")
        if report.missing:
            print(f"missing: {', '.join(report.missing)}")
        return 0
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(2)

    markdown = result.to_markdown()
    print(markdown)
    print(f"\n(completed in {time.time() - started:.1f}s)")
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(markdown + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
