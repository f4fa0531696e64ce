"""``BENCHMARK.json`` is the single list of workloads, metrics and bounds.

The harness reads it rather than repeating it: a workload that reports a
metric the file does not declare (or omits one it does) fails the run,
and ``compare`` takes each metric's direction and bound from here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # per-layer metrics carry no bound


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def metrics(self, trace: bool) -> tuple[Metric, ...]:
        return self.per_layer if trace else self.end_to_end


def load_spec(path: Path = SPEC_PATH) -> Spec:
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads=tuple(entry["name"] for entry in raw["workloads"]),
        end_to_end=tuple(Metric(**entry) for entry in raw["end_to_end"]),
        per_layer=tuple(Metric(**entry) for entry in raw["per_layer"]),
    )


def result_metrics(spec: Spec, trace: bool, values: dict[str, float]) -> dict:
    """``values`` as the contract's ``metrics`` object, checked both ways."""
    declared = {metric.name: metric for metric in spec.metrics(trace)}
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise ValueError(
            f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}"
        )
    return {
        name: {"value": float(values[name]), "unit": metric.unit}
        for name, metric in declared.items()
    }
