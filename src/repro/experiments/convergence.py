"""E-A4 (extension) — convergence-speed study.

The paper observes that pre-training "can warm-up the following
procedure": SASRec-BPR "converges more quickly at the fine-tuning step
than SASRec".  This experiment measures validation HR@10 after every
fine-tuning epoch for three starts — cold (SASRec), BPR-warm
(SASRec-BPR) and contrastive-warm (CL4SRec) — and reports how many
epochs each needs to reach a fixed performance bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cl4srec import CL4SRec
from repro.core.trainer import pretrain_contrastive
from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import ResultTable
from repro.models.registry import build_model


@dataclass
class ConvergenceTracker:
    """Record validation curves to compare convergence speed.

    The paper observes that pre-training "can warm-up the following
    procedure" — a pre-trained model should hit any fixed performance
    bar in fewer fine-tuning epochs.
    """

    curves: dict[str, list[float]] = field(default_factory=dict)

    def record(self, label: str, score: float) -> None:
        self.curves.setdefault(label, []).append(float(score))

    def epochs_to_reach(self, label: str, bar: float) -> int | None:
        """First (1-based) epoch at which ``label`` reached ``bar``."""
        for epoch, score in enumerate(self.curves.get(label, []), start=1):
            if score >= bar:
                return epoch
        return None


@dataclass
class ConvergenceResult:
    """Per-epoch validation curves and epochs-to-bar for each start."""

    dataset: str
    scale: ExperimentScale
    bar: float
    tracker: ConvergenceTracker = field(default_factory=ConvergenceTracker)

    def epochs_to_bar(self, label: str) -> int | None:
        return self.tracker.epochs_to_reach(label, self.bar)

    def to_markdown(self) -> str:
        labels = list(self.tracker.curves)
        epochs = max(len(curve) for curve in self.tracker.curves.values())
        table = ResultTable(
            headers=["Start"]
            + [f"ep{e}" for e in range(1, epochs + 1)]
            + [f"epochs to HR@10≥{self.bar:.2f}"],
            title=f"Convergence study — {self.dataset}",
        )
        for label in labels:
            curve = self.tracker.curves[label]
            reached = self.epochs_to_bar(label)
            table.add_row(
                label,
                *[f"{v:.4f}" for v in curve],
                *[""] * (epochs - len(curve)),
                str(reached) if reached is not None else "never",
            )
        return table.to_markdown()


def run_convergence(
    dataset_name: str = "beauty",
    scale: ExperimentScale | None = None,
    bar_fraction: float = 0.9,
) -> ConvergenceResult:
    """Measure fine-tuning convergence for cold vs warm starts.

    The bar is set to ``bar_fraction`` of the cold start's final
    validation HR@10, so the question becomes: how much sooner do the
    warm starts cross the level the baseline only reaches at the end?
    """
    scale = scale if scale is not None else ExperimentScale()
    dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    evaluator = Evaluator(dataset, split="valid")
    tracker = ConvergenceTracker()

    def epoch_curve(model, label: str, epochs: int) -> list[float]:
        curve = []
        for __ in range(epochs):
            model.fit(dataset, epochs=1, **(
                {"skip_pretrain": True} if isinstance(model, CL4SRec) else {}
            ))
            score = evaluator.evaluate(model, max_users=scale.max_eval_users)[
                "HR@10"
            ]
            curve.append(score)
            tracker.record(label, score)
        return curve

    # Cold start: plain SASRec.
    cold = build_model("SASRec", dataset, scale)
    cold_curve = epoch_curve(cold, "SASRec (cold)", scale.epochs)

    # BPR warm start.
    warm_bpr = build_model("SASRec-BPR", dataset, scale)
    warm_bpr.pretrain(dataset)
    epoch_curve(warm_bpr, "SASRec-BPR (warm)", scale.epochs)

    # Contrastive warm start: pre-train first, then fine-tune epoch by
    # epoch with the contrastive stage skipped.
    warm_cl = build_model(
        "CL4SRec", dataset, scale, augmentations=("crop", "mask", "reorder")
    )
    pretrain_contrastive(warm_cl, dataset, warm_cl.cl_config.pretrain)
    epoch_curve(warm_cl, "CL4SRec (contrastive warm)", scale.epochs)

    bar = bar_fraction * cold_curve[-1]
    return ConvergenceResult(
        dataset=dataset_name, scale=scale, bar=float(bar), tracker=tracker
    )
