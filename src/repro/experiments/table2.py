"""Table 2 — overall performance comparison (RQ1).

Trains every requested method on every requested dataset and reports
full-ranking HR@{5,10,20} and NDCG@{5,10,20}, plus the paper's two
improvement columns (CL4SRec over SASRec and over SASRec-BPR).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.factory import MODEL_NAMES, build_model
from repro.experiments.reporting import ResultTable, improvement_pct

METRIC_COLUMNS = ("HR@5", "HR@10", "HR@20", "NDCG@5", "NDCG@10", "NDCG@20")


@dataclass
class Table2Result:
    """metrics[dataset][model][metric] plus the evaluation scale."""

    scale: ExperimentScale
    metrics: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def improvement_over(self, dataset: str, baseline: str, metric: str) -> float:
        """Paper's Improv. column: % gain of CL4SRec over ``baseline``."""
        return improvement_pct(
            self.metrics[dataset]["CL4SRec"][metric],
            self.metrics[dataset][baseline][metric],
        )

    def to_markdown(self) -> str:
        blocks = []
        for dataset, per_model in self.metrics.items():
            models = list(per_model)
            table = ResultTable(
                headers=["Metric"] + models + ["Improv.#1", "Improv.#2"],
                title=f"Table 2 — {dataset}",
            )
            for metric in METRIC_COLUMNS:
                row = [metric] + [per_model[m][metric] for m in models]
                if "CL4SRec" in per_model and "SASRec" in per_model:
                    row.append(
                        f"{self.improvement_over(dataset, 'SASRec', metric):+.2f}%"
                    )
                else:
                    row.append("n/a")
                if "CL4SRec" in per_model and "SASRec-BPR" in per_model:
                    row.append(
                        f"{self.improvement_over(dataset, 'SASRec-BPR', metric):+.2f}%"
                    )
                else:
                    row.append("n/a")
                table.add_row(*row)
            blocks.append(table.to_markdown())
        return "\n\n".join(blocks)


def run_table2(
    datasets: tuple[str, ...] = ("beauty", "sports", "toys", "yelp"),
    models: tuple[str, ...] = MODEL_NAMES,
    scale: ExperimentScale | None = None,
    augmentations: tuple[str, ...] = ("crop", "mask", "reorder"),
    rates: list[float] | float = 0.5,
) -> Table2Result:
    """Train + evaluate every (dataset, model) cell of Table 2."""
    scale = scale if scale is not None else ExperimentScale()
    result = Table2Result(scale=scale)
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
        evaluator = Evaluator(dataset, split="test")
        result.metrics[dataset_name] = {}
        for model_name in models:
            model = build_model(
                model_name, dataset, scale, augmentations=augmentations, rates=rates
            )
            model.fit(dataset)
            evaluation = evaluator.evaluate(model, max_users=scale.max_eval_users)
            result.metrics[dataset_name][model_name] = evaluation.metrics
    return result
