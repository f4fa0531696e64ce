"""Figure 5 — composition of augmentations (RQ3).

Compares the three single operators (at their best rates) against the
three pairwise compositions, where the pair sampler applies two
*different* operators to the same sequence.  The paper's finding:
compositions do **not** outperform their best single component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.factory import build_model
from repro.experiments.reporting import ResultTable

OPERATORS = ("crop", "mask", "reorder")
#: The proportion rate every operator runs at.
RATE = 0.5


@dataclass
class Figure5Result:
    """results[label] -> metrics; single-op labels and "a+b" pairs."""

    dataset: str
    scale: ExperimentScale
    results: dict[str, dict[str, float]] = field(default_factory=dict)

    def best_single(self, metric: str = "HR@10") -> tuple[str, float]:
        singles = {k: v for k, v in self.results.items() if "+" not in k}
        best = max(singles, key=lambda k: singles[k][metric])
        return best, singles[best][metric]

    def best_composite(self, metric: str = "HR@10") -> tuple[str, float]:
        pairs = {k: v for k, v in self.results.items() if "+" in k}
        best = max(pairs, key=lambda k: pairs[k][metric])
        return best, pairs[best][metric]

    def to_markdown(self) -> str:
        table = ResultTable(
            headers=["Augmentation", "HR@10", "NDCG@10"],
            title=f"Figure 5 — composition study, {self.dataset}",
        )
        for label, metrics in self.results.items():
            table.add_row(label, metrics["HR@10"], metrics["NDCG@10"])
        return table.to_markdown()


def run_figure5(
    dataset_name: str = "beauty",
    scale: ExperimentScale | None = None,
) -> Figure5Result:
    """Evaluate singles and pairwise compositions, every operator at rate
    :data:`RATE` (Figure 4 finds the per-operator optima).
    """
    scale = scale if scale is not None else ExperimentScale()
    dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    evaluator = Evaluator(dataset, split="test")
    result = Figure5Result(dataset=dataset_name, scale=scale)

    for operator in OPERATORS:
        model = build_model(
            "CL4SRec",
            dataset,
            scale,
            augmentations=(operator,),
            rates=RATE,
        )
        model.fit(dataset)
        result.results[operator] = evaluator.evaluate(
            model, max_users=scale.max_eval_users
        ).metrics

    for first, second in combinations(OPERATORS, 2):
        model = build_model(
            "CL4SRec",
            dataset,
            scale,
            augmentations=(first, second),
            rates=[RATE, RATE],
            distinct_pair=True,
        )
        model.fit(dataset)
        result.results[f"{first}+{second}"] = evaluator.evaluate(
            model, max_users=scale.max_eval_users
        ).metrics
    return result
