"""E-S1 — serving throughput: batched engine vs per-user baseline.

The pre-engine serving path scored one user at a time
(``score_items`` with a single-user batch) and ranked the full
catalogue with ``np.argsort``.  The ``repro.serve`` engine batches the
encoder forward, reuses one precomputed item matrix, and selects top-k
with ``np.argpartition``.

Asserted shape: the engine serves the same request stream at least 5×
faster than the per-user baseline, and — scores being ties-free — the
returned top-k lists are bit-identical.
"""

import time

import numpy as np

from benchmarks.conftest import save_markdown
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.serve import RecommendationEngine, RecRequest

MIN_SPEEDUP = 5.0
K = 10


def _baseline_topk(model, dataset, user: int, k: int) -> np.ndarray:
    """The historical serving path: one user, full sort."""
    scores = np.asarray(
        model.score_items(dataset, np.asarray([user])), dtype=np.float64
    )[0]
    scores[0] = -np.inf
    scores[dataset.seen_items(user)] = -np.inf
    ranked = np.argsort(-scores, kind="stable")
    ranked = ranked[np.isfinite(scores[ranked])]
    return ranked[:k]


def test_serving_throughput(benchmark, results_dir):
    config = SyntheticConfig(
        num_users=800,
        num_items=800,
        num_interests=10,
        mean_length=12.0,
        seed=7,
    )
    dataset = SequenceDataset.from_log(generate_log(config), name="serving-bench")
    scale = ExperimentScale(epochs=1, dim=32, batch_size=64, max_length=12)
    model = build_model("SASRec", dataset, scale)
    model.fit(dataset)

    users = list(range(dataset.num_users))
    requests = [RecRequest(user=user, k=K) for user in users]

    started = time.perf_counter()
    baseline = [_baseline_topk(model, dataset, user, K) for user in users]
    baseline_seconds = time.perf_counter() - started

    engine = RecommendationEngine(model, dataset, max_batch_size=64)
    started = time.perf_counter()
    served = engine.recommend_batch(requests)
    engine_seconds = time.perf_counter() - started

    for user, expected, result in zip(users, baseline, served):
        assert np.array_equal(expected, result.items), (
            f"user {user}: engine top-k diverges from the baseline"
        )

    speedup = baseline_seconds / engine_seconds
    snapshot = engine.metrics.snapshot()

    # Steady-state throughput (warm representation cache) for the report;
    # correctness and the speedup gate are measured cold above.
    warm = benchmark.pedantic(
        lambda: engine.recommend_batch(requests), rounds=3, iterations=1
    )
    assert len(warm) == len(requests)

    lines = [
        "### Serving throughput (batched engine vs per-user baseline)",
        "",
        f"{len(users)} user requests, k={K}, catalogue of "
        f"{dataset.num_items} items, SASRec dim {scale.dim}.",
        "",
        "| path | wall time (s) | requests/s |",
        "|---|---|---|",
        f"| per-user score_items + argsort | {baseline_seconds:.3f} | "
        f"{len(users) / baseline_seconds:.0f} |",
        f"| batched engine (cold cache) | {engine_seconds:.3f} | "
        f"{len(users) / engine_seconds:.0f} |",
        "",
        f"Speedup: **{speedup:.1f}×** (gate: ≥{MIN_SPEEDUP:.0f}×); top-k "
        f"lists bit-identical across all {len(users)} requests.",
        f"Engine stage p50 (cold pass): encode "
        f"{snapshot['latency']['encode']['p50_ms']:.2f} ms, score "
        f"{snapshot['latency']['score']['p50_ms']:.2f} ms, topk "
        f"{snapshot['latency']['topk']['p50_ms']:.2f} ms.",
    ]
    markdown = "\n".join(lines)
    print("\n" + markdown)
    save_markdown(results_dir, "serving_throughput", markdown)

    assert speedup >= MIN_SPEEDUP, (
        f"engine only {speedup:.1f}× faster than the per-user baseline "
        f"(required {MIN_SPEEDUP:.0f}×): baseline {baseline_seconds:.3f}s, "
        f"engine {engine_seconds:.3f}s"
    )
