"""Aggregate regenerated artifacts into one report.

The benchmarks save each regenerated table/figure as markdown under
``benchmarks/results/``; :func:`build_report` stitches them into a
single document (the repository ships the per-experiment commentary in
EXPERIMENTS.md — this aggregator is for the raw regenerated artifacts).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Canonical ordering of artifacts in the combined report.
SECTION_ORDER = (
    "table1",
    "dataset_fidelity",
    "table2",
    "figure4_beauty",
    "figure4_yelp",
    "figure5_beauty",
    "figure5_yelp",
    "figure6_beauty",
    "figure6_yelp",
    "ablation_projection",
    "ablation_temperature",
    "ablation_joint_vs_pretrain",
    "ablation_convergence",
    "ablation_negatives",
    "extension_baselines",
    "serving_throughput",
    "obs_overhead",
    "pipeline_throughput",
    "compute_core",
    "resilience",
    "retrieval",
    "serving_scale",
    "train_parallel",
)


@dataclass
class Report:
    """A stitched report plus bookkeeping about missing artifacts."""

    markdown: str
    included: list[str]
    missing: list[str]

    def write(self, path: str | os.PathLike) -> None:
        with open(path, "w") as handle:
            handle.write(self.markdown + "\n")


def build_report(
    results_dir: str | os.PathLike,
    title: str = "CL4SRec reproduction — regenerated artifacts",
) -> Report:
    """Combine all saved artifacts from ``results_dir``.

    Artifacts named in :data:`SECTION_ORDER` appear first, in order;
    any extra ``.md`` files in the directory are appended
    alphabetically, so new experiments are never silently dropped.
    """
    results_dir = str(results_dir)
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(f"no results directory at {results_dir}")
    available = {
        name[: -len(".md")]
        for name in os.listdir(results_dir)
        if name.endswith(".md")
    }
    ordered = [name for name in SECTION_ORDER if name in available]
    extras = sorted(available - set(SECTION_ORDER))
    included = ordered + extras
    missing = [name for name in SECTION_ORDER if name not in available]

    parts = [f"# {title}", ""]
    for name in included:
        with open(os.path.join(results_dir, f"{name}.md")) as handle:
            parts.append(handle.read().strip())
        parts.append("")
    if missing:
        parts.append("---")
        parts.append(
            "Missing artifacts (benchmarks not yet run): " + ", ".join(missing)
        )
    return Report(markdown="\n".join(parts).strip(), included=included, missing=missing)
