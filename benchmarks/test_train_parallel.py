"""E-S3 — data-parallel training: sharded workers vs the single process.

Times the contrastive pre-training stage (the heaviest loop: two
augmented encoder passes + NT-Xent per batch) twice on the same seeded
dataset through ``pretrain_contrastive`` — once with in-process
gradients (``workers=0``) and once with the ``repro.train.parallel``
worker pool as the gradient source (``workers=4``) — and records epoch
throughput (sequences/sec) into ``BENCH_train_parallel.json``.

The speedup gate is **core-aware**: the 2.5x bar from the scale-out design applies only when
>=4 cores are schedulable; with fewer cores the gate degrades to
"coordination overhead (fork + shared-memory publish + ordered
allreduce) stays bounded".  ``available_cores`` is recorded in the
artifact so a reported speedup is never read out of context.

Determinism is asserted alongside throughput: the parallel run must
reproduce itself bit-exactly at the fixed worker count.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import save_markdown
from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import pretrain_contrastive
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_train_parallel.json"
)

WORKERS = 4
EPOCHS = 2


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def speedup_gate(parallel: int) -> float:
    """Minimum parallel/serial throughput ratio the benchmark enforces."""
    if parallel >= 4:
        return 2.5  # the real scale-out claim
    if parallel >= 2:
        return 1.2
    # One schedulable core: N workers time-slice the same core and the
    # coordinator adds fork + publish + allreduce on top, so the gate
    # bounds that coordination overhead instead of pretending to scale.
    return 0.35


def _build_model(dataset, workers: int) -> CL4SRec:
    config = CL4SRecConfig(
        sasrec=SASRecConfig(
            dim=32,
            num_layers=1,
            num_heads=2,
            train=TrainConfig(epochs=EPOCHS, batch_size=64, max_length=30),
        ),
        mode="pretrain_finetune",
        pretrain=TrainConfig(
            epochs=EPOCHS, batch_size=64, max_length=30, workers=workers
        ),
        joint=TrainConfig(epochs=EPOCHS, batch_size=64),
    )
    return CL4SRec(dataset, config)


def _run_pretrain(dataset, workers: int) -> dict:
    model = _build_model(dataset, workers)
    started = time.perf_counter()
    history = pretrain_contrastive(
        model, dataset, model.cl_config.pretrain, rng=model._rng
    )
    seconds = time.perf_counter() - started
    sequences = len(dataset.train_sequences) * EPOCHS
    assert all(np.isfinite(history.losses))
    return {
        "workers": workers,
        "epochs": EPOCHS,
        "seconds": seconds,
        "sequences": sequences,
        "sequences_per_sec": sequences / seconds,
        "final_loss": float(history.losses[-1]),
        "state": model.state_dict(),
    }


@pytest.mark.parallel
def test_train_parallel(benchmark, results_dir):
    dataset = SequenceDataset.from_log(
        generate_log(SyntheticConfig(
            num_users=600, num_items=400, num_interests=10,
            mean_length=12.0, seed=7,
        )),
        name="train-parallel",
    )

    serial = _run_pretrain(dataset, workers=0)
    # One timed round: each training run is tens of seconds, and the
    # sequences/sec it reports is the real measurement.
    parallel_report = benchmark.pedantic(
        lambda: _run_pretrain(dataset, workers=WORKERS),
        rounds=1,
        iterations=1,
    )
    # Same seed + same worker count must reproduce bit-exactly.
    repeat = _run_pretrain(dataset, workers=WORKERS)
    assert repeat["final_loss"] == parallel_report["final_loss"]
    for name, array in parallel_report["state"].items():
        np.testing.assert_array_equal(array, repeat["state"][name], err_msg=name)

    cores = available_cores()
    parallelism = min(WORKERS, cores)
    speedup = (
        parallel_report["sequences_per_sec"] / serial["sequences_per_sec"]
    )
    required = speedup_gate(parallelism)

    def _public(report: dict) -> dict:
        return {k: v for k, v in report.items() if k != "state"}

    payload = {
        "benchmark": "train_parallel",
        "stage": "contrastive_pretrain",
        "workers": WORKERS,
        "available_cores": cores,
        "effective_parallelism": parallelism,
        "single_process": _public(serial),
        "parallel": _public(parallel_report),
        "throughput_speedup": speedup,
        "bit_identical_repeat": True,
        "gates": {
            "required_throughput_speedup": required,
            "full_2.5x_gate_active": parallelism >= 4,
        },
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    lines = [
        "# E-S3 — data-parallel training (sharded workers vs single process)",
        "",
        f"- stage: contrastive pre-train, {EPOCHS} epochs, "
        f"{serial['sequences'] // EPOCHS} sequences/epoch",
        f"- workers: {WORKERS}, available cores: {cores} "
        f"(effective parallelism {parallelism})",
        "",
        "| loop | seconds | sequences/sec |",
        "|---|---|---|",
        f"| workers=0 | {serial['seconds']:.2f} "
        f"| {serial['sequences_per_sec']:.1f} |",
        f"| workers={WORKERS} | {parallel_report['seconds']:.2f} "
        f"| {parallel_report['sequences_per_sec']:.1f} |",
        "",
        f"Throughput speedup: **{speedup:.2f}x** "
        f"(gate: >={required}x at parallelism {parallelism}; "
        "the full 2.5x bar applies when >=4 cores are usable)",
        "",
        "Two same-seed runs at the fixed worker count produced "
        "bit-identical weights.",
    ]
    save_markdown(results_dir, "train_parallel", "\n".join(lines))

    assert speedup >= required, (
        f"parallel training speedup {speedup:.2f}x below the "
        f"{required}x gate for parallelism {parallelism}"
    )
