"""Figure 4 — augmentation type × proportion sweep (RQ2).

One augmentation operator at a time, proportion rate swept over the
paper's grid {0.1, 0.3, 0.5, 0.7, 0.9}, reporting HR@10 and NDCG@10
against a SASRec dashed-line baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import ResultTable
from repro.models.registry import build_model

PAPER_RATE_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
OPERATORS = ("crop", "mask", "reorder")


@dataclass
class Figure4Result:
    """series[operator][rate] -> {HR@10, NDCG@10}; baseline = SASRec."""

    dataset: str
    scale: ExperimentScale
    rates: tuple[float, ...]
    series: dict[str, dict[float, dict[str, float]]] = field(default_factory=dict)
    baseline: dict[str, float] = field(default_factory=dict)

    def best_rate(self, operator: str, metric: str = "HR@10") -> float:
        """Rate with the highest metric for ``operator``."""
        points = self.series[operator]
        return max(points, key=lambda r: points[r][metric])

    def beats_baseline_fraction(self, operator: str, metric: str = "HR@10") -> float:
        """Fraction of swept rates where the operator beats SASRec."""
        points = self.series[operator]
        wins = sum(points[r][metric] > self.baseline[metric] for r in points)
        return wins / len(points)

    def to_markdown(self) -> str:
        blocks = []
        for metric in ("HR@10", "NDCG@10"):
            table = ResultTable(
                headers=["Operator"] + [f"rate={r}" for r in self.rates] + ["SASRec"],
                title=f"Figure 4 — {self.dataset}, {metric}",
            )
            for operator, points in self.series.items():
                table.add_row(
                    operator,
                    *[points[r][metric] for r in self.rates],
                    self.baseline[metric],
                )
            blocks.append(table.to_markdown())
        return "\n\n".join(blocks)


def run_figure4(
    dataset_name: str = "beauty",
    operators: tuple[str, ...] = OPERATORS,
    rates: tuple[float, ...] = PAPER_RATE_GRID,
    scale: ExperimentScale | None = None,
) -> Figure4Result:
    """Sweep each operator alone over the proportion grid."""
    scale = scale if scale is not None else ExperimentScale()
    dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    evaluator = Evaluator(dataset, split="test")

    baseline_model = build_model("SASRec", dataset, scale)
    baseline_model.fit(dataset)
    baseline = evaluator.evaluate(
        baseline_model, max_users=scale.max_eval_users
    ).metrics

    result = Figure4Result(
        dataset=dataset_name, scale=scale, rates=rates, baseline=baseline
    )
    for operator in operators:
        result.series[operator] = {}
        for rate in rates:
            model = build_model(
                "CL4SRec", dataset, scale, augmentations=(operator,), rates=rate
            )
            model.fit(dataset)
            evaluation = evaluator.evaluate(model, max_users=scale.max_eval_users)
            result.series[operator][rate] = evaluation.metrics
    return result
