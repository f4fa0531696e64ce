"""E-P2 — compute-core encoder throughput: float32 against float64.

The transformer encoder's forward/backward is the compute hot spot:
per step it runs two packed QKV projections, two ``(B, h, T, T)``
attention softmaxes, and two FFN gemms, plus their backwards, all on
the fused kernels (one graph node per op, masks from the shape-keyed
cache).  Bit-identity with the seed's op-for-op composition is pinned
by the goldens and ``tests/nn/test_compute.py``, not measured here.

Gate, measured as encoder forward+backward tokens/sec: the float32
encoder (the one precision, ``repro.nn.precision``) >=
``MIN_FLOAT32_SPEEDUP`` x the same encoder cast to float64 with
``Module.to_dtype``.

Timings interleave the two variants round-robin, use per-process CPU
time, and keep the best round of each: on a shared CPU core,
background load drifts on the scale of whole seconds, and interleaving
plus best-of cancels what CPU-time accounting alone cannot (cache and
memory-bandwidth contention from neighbors).  The gate shape sits in
the long-history regime (T >> d) where the ``(B, h, T, T)`` attention
quadratic dominates.

The test writes ``benchmarks/results/compute_core.md`` and the
machine-readable ``BENCH_compute.json`` at the repo root.  End-to-end
training and evaluation numbers are the ``train_paper`` workload of
``python3 -m benchmarks.perf``.

Run with ``--quick`` for the reduced-scale CI smoke variant (same
gates; smaller shapes and fewer repeats).
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import save_markdown
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoder

MIN_FLOAT32_SPEEDUP = 1.5
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_compute.json")



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
        }
    return {
        "quick": False,
        "batch": 8,
        "length": 192,
        "dim": 32,
        "hidden": 128,
        "repeats": 10,
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
    encoder = {
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
    write_artifacts(scale, encoder)

    assert speedup32 >= MIN_FLOAT32_SPEEDUP, (
        f"fused float32 encoder is only {speedup32:.2f}x the float64 "
        f"encoder (gate: {MIN_FLOAT32_SPEEDUP}x)"
    )


def write_artifacts(scale, encoder: dict) -> None:
    lines = [
        "# Compute-core throughput (E-P2)",
        "",
        "The fused kernels with mask/buffer caching, in float32 (the one "
        "precision) and cast to float64.",
        "",
    ]
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
    content = "\n".join(lines)
    save_markdown(os.path.join(os.path.dirname(__file__), "results"),
                  "compute_core", content)

    payload = {
        "benchmark": "compute_core",
        "quick": scale["quick"],
        "gates": {
            "float32_speedup_min": MIN_FLOAT32_SPEEDUP,
        },
        "encoder": encoder,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
