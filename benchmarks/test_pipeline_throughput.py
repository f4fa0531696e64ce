"""E-P1 — vectorized batch-construction speedup (the PR-4 gate).

The contrastive loader is the data-path hot spot: every epoch it
augments two views of every eligible sequence.  The reference path
applies the scalar operators row by row; the vectorized path lifts the
pair sampler to matrix form (:mod:`repro.augment.batched`) over the
dataset's precomputed padded views.  The gate asserts the vectorized
contrastive batch construction is at least ``MIN_SPEEDUP`` times
faster, measured as best-of-``REPEATS`` full epochs with the padded-
view cache warmed first (the one-off cache build is amortized across a
whole training run and excluded on purpose).

End-to-end training speedup is necessarily smaller: the model's
forward/backward dominates (batch construction is under 1 % of a
``train_paper`` step — docs/PERFORMANCE.md).

Run with ``--quick`` for the reduced-scale CI smoke variant.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import save_markdown
from repro.augment import Crop, Mask, PairSampler, Reorder
from repro.data.loaders import ContrastiveBatchLoader, NextItemBatchLoader
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log

MIN_SPEEDUP = 3.0
MAX_LENGTH = 50
BATCH_SIZE = 256


@pytest.fixture(scope="module")
def scale(request):
    quick = request.config.getoption("--quick")
    return {
        "num_users": 1000 if quick else 4000,
        "repeats": 3 if quick else 5,
        "quick": quick,
    }


@pytest.fixture(scope="module")
def bench_dataset(scale):
    config = SyntheticConfig(
        num_users=scale["num_users"],
        num_items=400,
        num_interests=8,
        mean_length=12.0,
        seed=3,
    )
    return SequenceDataset.from_log(generate_log(config), name="pipeline-bench")


def pair_sampler(dataset):
    return PairSampler(
        [Crop(0.6), Mask(0.3, mask_token=dataset.num_items + 1), Reorder(0.5)]
    )


def time_contrastive_epoch(dataset, pipeline) -> tuple[float, int]:
    """Wall time of one full augmented epoch; returns (seconds, sequences)."""
    loader = ContrastiveBatchLoader(
        dataset,
        pair_sampler(dataset),
        MAX_LENGTH,
        BATCH_SIZE,
        np.random.default_rng(0),
        pipeline=pipeline,
    )
    sequences = 0
    started = time.perf_counter()
    for batch in loader.epoch():
        sequences += len(batch.users)
    return time.perf_counter() - started, sequences


def time_next_item_epoch(dataset, pipeline) -> tuple[float, int]:
    loader = NextItemBatchLoader(
        dataset,
        MAX_LENGTH,
        BATCH_SIZE,
        np.random.default_rng(0),
        pipeline=pipeline,
    )
    sequences = 0
    started = time.perf_counter()
    for batch in loader.epoch():
        sequences += len(batch.users)
    return time.perf_counter() - started, sequences


def best_of(repeats, fn, *args):
    times, payload = [], None
    for __ in range(repeats):
        seconds, payload = fn(*args)
        times.append(seconds)
    return min(times), payload


def test_contrastive_batch_construction_speedup(
    benchmark, bench_dataset, scale, results_dir
):
    # Warm the padded-view cache: the gate measures steady-state epoch
    # cost, not the one-off precomputation.
    time_contrastive_epoch(bench_dataset, "vectorized")

    repeats = scale["repeats"]
    ref_seconds, sequences = best_of(
        repeats, time_contrastive_epoch, bench_dataset, "reference"
    )
    vec_seconds, __ = benchmark.pedantic(
        lambda: best_of(
            repeats, time_contrastive_epoch, bench_dataset, "vectorized"
        ),
        rounds=1,
        iterations=1,
    )
    speedup = ref_seconds / vec_seconds

    next_ref, __ = best_of(repeats, time_next_item_epoch, bench_dataset, "reference")
    next_vec, __ = best_of(
        repeats, time_next_item_epoch, bench_dataset, "vectorized"
    )

    lines = [
        "# Vectorized batch-construction throughput (E-P1)",
        "",
        f"- dataset: {scale['num_users']} users, T={MAX_LENGTH}, "
        f"batch={BATCH_SIZE}" + (" (--quick)" if scale["quick"] else ""),
        f"- contrastive epoch, reference: {ref_seconds * 1e3:.1f} ms "
        f"({sequences / ref_seconds:,.0f} seq/s)",
        f"- contrastive epoch, vectorized: {vec_seconds * 1e3:.1f} ms "
        f"({sequences / vec_seconds:,.0f} seq/s)",
        f"- **contrastive speedup: {speedup:.1f}x** (gate: >= {MIN_SPEEDUP:.0f}x)",
        f"- next-item epoch: {next_ref * 1e3:.1f} ms reference vs "
        f"{next_vec * 1e3:.1f} ms vectorized (both fancy-indexed; the "
        "vectorized path only moves draws to a child stream)",
    ]
    save_markdown(results_dir, "pipeline_throughput", "\n".join(lines))
    print("\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized contrastive batch construction is only {speedup:.2f}x "
        f"faster than the reference path (gate: {MIN_SPEEDUP}x)"
    )
