"""Figure 6 — impact of the amount of training data (RQ4).

CL4SRec (item mask, γ=0.5, per the paper) versus SASRec at
{20, 40, 60, 80, 100}% of the training users.  The paper's findings:
performance degrades with less data, and CL4SRec stays above SASRec at
every fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.factory import build_model
from repro.experiments.reporting import ResultTable

PAPER_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class Figure6Result:
    """series[model][fraction] -> metrics (HR@10, NDCG@10, ...)."""

    dataset: str
    scale: ExperimentScale
    fractions: tuple[float, ...]
    series: dict[str, dict[float, dict[str, float]]] = field(default_factory=dict)

    def wins_at_every_fraction(self) -> bool:
        """Does CL4SRec beat SASRec on NDCG@10 at every training fraction?"""
        cl = self.series["CL4SRec"]
        sas = self.series["SASRec"]
        return all(cl[f]["NDCG@10"] > sas[f]["NDCG@10"] for f in self.fractions)

    def degradation(self, model: str, metric: str = "NDCG@10") -> float:
        """Relative drop from 100% to the smallest fraction, in percent."""
        full = self.series[model][max(self.fractions)][metric]
        small = self.series[model][min(self.fractions)][metric]
        if small == 0:
            return float("inf")
        return 100.0 * (full - small) / small

    def to_markdown(self) -> str:
        blocks = []
        for metric in ("HR@10", "NDCG@10"):
            table = ResultTable(
                headers=["Model"] + [f"{int(f * 100)}%" for f in self.fractions],
                title=f"Figure 6 — {self.dataset}, {metric}",
            )
            for model, points in self.series.items():
                table.add_row(model, *[points[f][metric] for f in self.fractions])
            blocks.append(table.to_markdown())
        return "\n\n".join(blocks)


def run_figure6(
    dataset_name: str = "beauty",
    fractions: tuple[float, ...] = PAPER_FRACTIONS,
    scale: ExperimentScale | None = None,
    gamma: float = 0.5,
) -> Figure6Result:
    """Train SASRec and CL4SRec(mask, γ) on shrinking training sets.

    Evaluation always uses the users present in the subsample, so each
    point is a self-consistent leave-one-out protocol; the comparison
    between models at the same fraction is what the paper plots.
    """
    scale = scale if scale is not None else ExperimentScale()
    full = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    result = Figure6Result(
        dataset=dataset_name, scale=scale, fractions=fractions
    )
    result.series = {"SASRec": {}, "CL4SRec": {}}

    # Training shrinks with the fraction, but evaluation always runs on
    # the FULL user population: SASRec-family models have no per-user
    # parameters (they encode the history), so users outside the
    # training subsample are still scoreable.  A fixed test population
    # makes the cross-fraction curves comparable, as in the paper.
    evaluator = Evaluator(full, split="test")
    for fraction in fractions:
        subsampled = full.subsample_users(fraction, seed=scale.seed)
        for model_name in ("SASRec", "CL4SRec"):
            model = build_model(
                model_name,
                subsampled,
                scale,
                augmentations=("mask",),
                rates=gamma,
            )
            model.fit(subsampled)
            result.series[model_name][fraction] = evaluator.evaluate(
                model, max_users=scale.max_eval_users
            ).metrics
    return result
