"""E-O1 — disabled-profiling overhead on the training hot path.

The ``repro.nn`` hot paths (matmul, attention, encoder forward) are
instrumented with :func:`repro.obs.profiling.profile_scope`.  When
profiling is off — the default — each instrumented call costs one
module-global read plus one empty ``with`` on a shared null scope.

A naive A/B wall-clock comparison of two training runs is too noisy to
gate on (run-to-run variance on a busy CPU easily exceeds 3%), so the
gate is computed from first principles instead:

1. time the disabled ``profile_scope`` path in isolation (per-call
   cost, averaged over many iterations);
2. count exactly how many instrumented calls one tiny training run
   makes (an enabled profiler counts them without guessing);
3. assert ``calls x per-call cost < 3%`` of the measured wall time of
   the same run with profiling disabled.
"""

import time

import numpy as np

from benchmarks.conftest import save_markdown
from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import train_joint
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig
from repro.obs import profiling

MAX_OVERHEAD_FRACTION = 0.03
CALIBRATION_ITERS = 200_000


def make_model(dataset):
    return CL4SRec(
        dataset,
        CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
            ),
            augmentations=("mask",),
            rates=0.5,
            mode="joint",
            joint=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        ),
    )


def null_scope_calibration() -> float:
    """Wall time of CALIBRATION_ITERS disabled profile_scope calls."""
    assert not profiling.enabled()
    scope = profiling.profile_scope
    started = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        with scope("calibration"):
            pass
    return time.perf_counter() - started


def test_disabled_profiling_overhead_under_3_percent(benchmark, results_dir):
    config = SyntheticConfig(
        num_users=300, num_items=120, num_interests=8, mean_length=9.0, seed=3
    )
    dataset = SequenceDataset.from_log(generate_log(config), name="obs-bench")

    profiling.disable()
    per_call = benchmark(null_scope_calibration) / CALIBRATION_ITERS

    # Wall time of the run everyone actually pays for: profiling off.
    model = make_model(dataset)
    started = time.perf_counter()
    train_joint(model, dataset, model.cl_config.joint)
    wall_seconds = time.perf_counter() - started

    # Exact instrumented-call count for the identical workload.
    with profiling.profiled() as profiler:
        model = make_model(dataset)
        train_joint(model, dataset, model.cl_config.joint)
    calls = sum(
        counter.value
        for name, counter in profiler.registry.counters.items()
        if name.startswith("profile_calls/")
    )
    assert calls > 0, "instrumented nn paths were never hit"

    overhead_seconds = calls * per_call
    fraction = overhead_seconds / wall_seconds

    lines = [
        "# Disabled-profiling overhead (E-O1)",
        "",
        f"- null-scope cost: {per_call * 1e9:.1f} ns/call",
        f"- instrumented calls in one tiny joint run: {calls}",
        f"- run wall time (profiling off): {wall_seconds:.3f} s",
        f"- estimated overhead: {overhead_seconds * 1e3:.3f} ms "
        f"({fraction * 100:.4f}% of wall time; gate: "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}%)",
    ]
    save_markdown(results_dir, "obs_overhead", "\n".join(lines))
    print("\n".join(lines))

    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled profiling costs {fraction * 100:.2f}% of wall time "
        f"({calls} calls x {per_call * 1e9:.0f} ns)"
    )
