"""Extension ablations on the design choices DESIGN.md calls out.

* **E-A1 projection head** (§3.2.3): the paper claims the projection
  removes information useful downstream and must be discarded at
  fine-tuning.  We compare scoring through the raw encoder output
  against scoring through the (pre-trained) projection.
* **E-A2 temperature** (§3.2.4): sweep the NT-Xent τ.
* **E-A3 training regime** (§3.5): the preprint's two-stage
  pre-train→fine-tune pipeline versus the camera-ready's joint
  multi-task objective ``L_rec + λ·L_cl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import ResultTable
from repro.models.registry import build_model


@dataclass
class AblationResult:
    """variants[label] -> metrics for one ablation axis."""

    name: str
    dataset: str
    scale: ExperimentScale
    variants: dict[str, dict[str, float]] = field(default_factory=dict)

    def best(self, metric: str = "HR@10") -> tuple[str, float]:
        label = max(self.variants, key=lambda k: self.variants[k][metric])
        return label, self.variants[label][metric]

    def to_markdown(self) -> str:
        table = ResultTable(
            headers=["Variant", "HR@10", "NDCG@10"],
            title=f"Ablation: {self.name} ({self.dataset})",
        )
        for label, metrics in self.variants.items():
            table.add_row(label, metrics["HR@10"], metrics["NDCG@10"])
        return table.to_markdown()


def run_projection_ablation(
    dataset_name: str = "beauty",
    scale: ExperimentScale | None = None,
) -> AblationResult:
    """Score through the encoder (paper) vs through the projection head."""
    scale = scale if scale is not None else ExperimentScale()
    dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    evaluator = Evaluator(dataset, split="test")

    model = build_model("CL4SRec", dataset, scale, augmentations=("mask",), rates=0.5)
    model.fit(dataset)
    result = AblationResult(
        name="projection head at inference", dataset=dataset_name, scale=scale
    )
    result.variants["discard g(·) (paper)"] = evaluator.evaluate(
        model, max_users=scale.max_eval_users
    ).metrics

    class _ProjectedScorer:
        def score_items(self, dataset, users, split="test"):
            return model.score_users_projected(dataset, users, split=split)

    result.variants["keep g(·)"] = evaluator.evaluate(
        _ProjectedScorer(), max_users=scale.max_eval_users
    ).metrics
    return result


def run_temperature_ablation(
    dataset_name: str = "beauty",
    temperatures: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0),
    scale: ExperimentScale | None = None,
) -> AblationResult:
    """Sweep the NT-Xent softmax temperature τ."""
    scale = scale if scale is not None else ExperimentScale()
    dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    evaluator = Evaluator(dataset, split="test")
    result = AblationResult(
        name="NT-Xent temperature", dataset=dataset_name, scale=scale
    )
    for tau in temperatures:
        model = build_model(
            "CL4SRec",
            dataset,
            scale,
            augmentations=("mask",),
            rates=0.5,
            temperature=tau,
        )
        model.fit(dataset)
        result.variants[f"tau={tau}"] = evaluator.evaluate(
            model, max_users=scale.max_eval_users
        ).metrics
    return result


def run_joint_vs_pretrain(
    dataset_name: str = "beauty",
    scale: ExperimentScale | None = None,
    cl_weight: float = 0.1,
) -> AblationResult:
    """Two-stage (preprint) vs joint multi-task (camera-ready) training."""
    scale = scale if scale is not None else ExperimentScale()
    dataset = load_dataset(dataset_name, scale=scale.dataset_scale, seed=scale.seed)
    evaluator = Evaluator(dataset, split="test")
    result = AblationResult(
        name="pre-train→fine-tune vs joint", dataset=dataset_name, scale=scale
    )
    for mode in ("pretrain_finetune", "joint"):
        model = build_model(
            "CL4SRec",
            dataset,
            scale,
            augmentations=("mask",),
            rates=0.5,
            mode=mode,
            cl_weight=cl_weight,
        )
        model.fit(dataset)
        result.variants[mode] = evaluator.evaluate(
            model, max_users=scale.max_eval_users
        ).metrics
    return result
