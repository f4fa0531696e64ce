"""E-P2 — compute-core encoder throughput: float32 against float64.

The transformer encoder's forward/backward is the compute hot spot:
per step it runs two packed QKV projections, two ``(B, h, T, T)``
attention softmaxes, and two FFN gemms, plus their backwards, all on
the fused kernels (one graph node per op, masks from the shape-keyed
cache).  Bit-identity with the seed's op-for-op composition is pinned
by the goldens and ``tests/nn/test_compute.py``, not measured here.

Gate, measured as encoder forward+backward tokens/sec: the opt-in
float32 mode >= ``MIN_FLOAT32_SPEEDUP`` x the float64 default.

Timings interleave the two variants round-robin, use per-process CPU
time, and keep the best round of each: on a shared CPU core,
background load drifts on the scale of whole seconds, and interleaving
plus best-of cancels what CPU-time accounting alone cannot (cache and
memory-bandwidth contention from neighbors).  The gate shape sits in
the long-history regime (T >> d) where the ``(B, h, T, T)`` attention
quadratic dominates.

The second test records float64 and float32 numbers for end-to-end
training, evaluation, and serving (no gate: those paths also pay data
handling and ranking costs the compute core cannot shrink) and writes
the combined artifact to ``benchmarks/results/compute_core.md`` plus
the machine-readable ``BENCH_compute.json`` at the repo root.

Run with ``--quick`` for the reduced-scale CI smoke variant (same
gates; smaller shapes and fewer repeats).
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import save_markdown
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.eval.evaluator import Evaluator
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig, train_next_item_model
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoder
from repro.serve.engine import RecommendationEngine
from repro.serve.requests import RecRequest

MIN_FLOAT32_SPEEDUP = 1.5
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_compute.json")

# Shared between the two tests so the artifact writer can combine the
# encoder gate numbers with the end-to-end table.
RESULTS: dict = {}


@pytest.fixture(scope="module")
def scale(request):
    quick = request.config.getoption("--quick")
    if quick:
        return {
            "quick": True,
            "batch": 8,
            "length": 128,
            "dim": 32,
            "hidden": 128,
            "repeats": 5,
            "num_users": 600,
            "eval_users": 64,
        }
    return {
        "quick": False,
        "batch": 8,
        "length": 192,
        "dim": 32,
        "hidden": 128,
        "repeats": 10,
        "num_users": 1500,
        "eval_users": 200,
    }


def make_encoder(dtype, scale) -> TransformerEncoder:
    encoder = TransformerEncoder(
        num_layers=2,
        dim=scale["dim"],
        num_heads=2,
        hidden_dim=scale["hidden"],
        dropout=0.0,
        rng=np.random.default_rng(0),
    )
    encoder.eval()  # dropout off; grad mode still builds the full graph
    encoder.to_dtype(dtype)
    return encoder


def forward_backward(encoder, x, padding) -> None:
    out = encoder(Tensor(x), causal=True, key_padding_mask=padding)
    (out * out).sum().backward()
    encoder.zero_grad()


def interleaved_best(variants, repeats) -> dict:
    """Best single-step CPU seconds per variant, interleaved round-robin.

    ``process_time`` (user+sys of this process) instead of wall time:
    the benchmark host shares its core, and wall-clock best-of still
    inherits whole-percent drift from neighbors that CPU accounting
    does not.
    """
    best = {name: float("inf") for name in variants}
    for __ in range(repeats):
        for name, step in variants.items():
            started = time.process_time()
            step()
            best[name] = min(best[name], time.process_time() - started)
    return best


def test_encoder_forward_backward_speedup(benchmark, scale, results_dir):
    batch, length = scale["batch"], scale["length"]
    x64 = np.random.default_rng(1).normal(size=(batch, length, scale["dim"]))
    x32 = x64.astype(np.float32)
    padding = np.zeros((batch, length), dtype=bool)
    padding[:, :5] = True  # exercise the combined-mask cache
    enc64 = make_encoder(np.float64, scale)
    enc32 = make_encoder(np.float32, scale)

    variants = {
        "fused float64": lambda: forward_backward(enc64, x64, padding),
        "fused float32": lambda: forward_backward(enc32, x32, padding),
    }
    for step in variants.values():  # warm caches, JIT-free but alloc-heavy
        step()

    best = benchmark.pedantic(
        lambda: interleaved_best(variants, scale["repeats"]), rounds=1, iterations=1
    )

    tokens = batch * length
    speedup32 = best["fused float64"] / best["fused float32"]
    RESULTS["encoder"] = {
        "batch": batch,
        "length": length,
        "dim": scale["dim"],
        "tokens_per_step": tokens,
        "seconds": best,
        "tokens_per_sec": {name: tokens / sec for name, sec in best.items()},
        "float32_speedup": speedup32,
    }

    lines = [
        f"encoder fwd+bwd, B={batch} T={length} d={scale['dim']} "
        f"(2 layers, 2 heads):",
    ]
    for name, seconds in best.items():
        lines.append(
            f"- {name}: {seconds * 1e3:.1f} ms/step "
            f"({tokens / seconds:,.0f} tokens/s)"
        )
    lines.append(
        f"- float32 speedup vs float64: {speedup32:.2f}x "
        f"(gate: >= {MIN_FLOAT32_SPEEDUP}x)"
    )
    print("\n".join(lines))

    assert speedup32 >= MIN_FLOAT32_SPEEDUP, (
        f"fused float32 encoder is only {speedup32:.2f}x the float64 "
        f"encoder (gate: {MIN_FLOAT32_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# End-to-end float64 and float32: training, evaluation, serving.
# ----------------------------------------------------------------------
def bench_dataset(scale) -> SequenceDataset:
    config = SyntheticConfig(
        num_users=scale["num_users"],
        num_items=300,
        num_interests=8,
        mean_length=14.0,
        seed=5,
    )
    return SequenceDataset.from_log(generate_log(config), name="compute-bench")


def timed_pipeline(dataset, scale, dtype: str) -> dict:
    """One training epoch + one evaluation pass + one serving batch."""
    model = SASRec(
        dataset,
        SASRecConfig(
            dim=scale["dim"],
            train=TrainConfig(
                epochs=1,
                batch_size=128,
                max_length=50,
                seed=0,
                dtype=dtype,
            ),
        ),
    )
    users = dataset.evaluation_users("test")[: scale["eval_users"]]
    started = time.perf_counter()
    train_next_item_model(model, dataset, model.config.train)
    train_seconds = time.perf_counter() - started

    started = time.perf_counter()
    Evaluator(dataset, split="test").evaluate(model, max_users=len(users))
    eval_seconds = time.perf_counter() - started

    engine = RecommendationEngine(model, dataset)
    requests = [RecRequest(user=int(user), k=10) for user in users]
    started = time.perf_counter()
    engine.recommend_batch(requests)
    serve_seconds = time.perf_counter() - started
    return {"train": train_seconds, "eval": eval_seconds, "serve": serve_seconds}


def test_end_to_end_float64_float32(benchmark, scale, results_dir):
    dataset = bench_dataset(scale)

    def run_all():
        return {
            "fused float64": timed_pipeline(dataset, scale, dtype="float64"),
            "fused float32": timed_pipeline(dataset, scale, dtype="float32"),
        }

    e2e = benchmark.pedantic(run_all, rounds=1, iterations=1)
    RESULTS["end_to_end"] = e2e

    header = (
        f"one epoch ({scale['num_users']} users, batch 128, T=50) / "
        f"eval + serve over {scale['eval_users']} users"
    )
    table = [
        "| variant | train (s) | eval (s) | serve (s) |",
        "|---|---|---|---|",
    ]
    for name, row in e2e.items():
        table.append(
            f"| {name} | {row['train']:.2f} | {row['eval']:.2f} "
            f"| {row['serve']:.2f} |"
        )
    print(header + "\n" + "\n".join(table))

    write_artifacts(scale)


def write_artifacts(scale) -> None:
    lines = [
        "# Compute-core throughput (E-P2)",
        "",
        "The fused kernels with mask/buffer caching, in float64 (the "
        "default; bit-identical to the seed composition, pinned by the "
        "goldens) and opt-in float32.",
        "",
    ]
    encoder = RESULTS.get("encoder")
    if encoder:
        lines += [
            "## Encoder forward/backward (gated)",
            "",
            f"- shape: B={encoder['batch']}, T={encoder['length']}, "
            f"d={encoder['dim']}, 2 layers, 2 heads"
            + (" (--quick)" if scale["quick"] else ""),
        ]
        for name, seconds in encoder["seconds"].items():
            lines.append(
                f"- {name}: {seconds * 1e3:.1f} ms/step "
                f"({encoder['tokens_per_sec'][name]:,.0f} tokens/s)"
            )
        lines += [
            f"- **float32 speedup vs float64: {encoder['float32_speedup']:.2f}x** "
            f"(gate: >= {MIN_FLOAT32_SPEEDUP}x)",
            "",
        ]
    e2e = RESULTS.get("end_to_end")
    if e2e:
        lines += [
            "## End-to-end (reported, not gated)",
            "",
            f"One training epoch ({scale['num_users']} synthetic users, "
            f"batch 128, T=50), one evaluation pass and one batched "
            f"serving request over {scale['eval_users']} users.",
            "",
            "| variant | train (s) | eval (s) | serve (s) |",
            "|---|---|---|---|",
        ]
        for name, row in e2e.items():
            lines.append(
                f"| {name} | {row['train']:.2f} | {row['eval']:.2f} "
                f"| {row['serve']:.2f} |"
            )
    content = "\n".join(lines)
    save_markdown(os.path.join(os.path.dirname(__file__), "results"),
                  "compute_core", content)

    payload = {
        "benchmark": "compute_core",
        "quick": scale["quick"],
        "gates": {
            "float32_speedup_min": MIN_FLOAT32_SPEEDUP,
        },
        **RESULTS,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
