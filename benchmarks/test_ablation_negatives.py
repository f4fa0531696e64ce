"""E-A5 — ablation: uniform vs popularity-weighted negative sampling.

The paper (following SASRec) samples its BCE negatives uniformly.
Popularity-weighted negatives (∝ count^0.75) are the word2vec-style
alternative that yields harder contrasts.  This bench quantifies the
choice on our substrate.

Asserted (robustness-style): both samplers produce working models in
the same performance neighbourhood, and both beat the popularity
heuristic itself (Pop) — i.e. the model learns more than raw popularity
under either sampler.
"""

from benchmarks.conftest import save_markdown
from repro.data.registry import load_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import ResultTable
from repro.models.pop import Pop
from repro.models.registry import build_model

SCALE = ExperimentScale(
    dataset_scale=0.04,
    dim=40,
    max_length=25,
    epochs=12,
    pretrain_epochs=4,
    batch_size=128,
    max_eval_users=700,
    seed=7,
)
ALPHAS = (0.0, 0.75)


def test_ablation_negative_sampling(benchmark, results_dir):
    def run():
        dataset = load_dataset("beauty", scale=SCALE.dataset_scale, seed=SCALE.seed)
        evaluator = Evaluator(dataset, split="test")
        metrics = {}
        metrics["Pop"] = evaluator.evaluate(
            Pop().fit(dataset), max_users=SCALE.max_eval_users
        ).metrics
        for alpha in ALPHAS:
            model = build_model("SASRec", dataset, SCALE)
            model.fit(dataset, negative_alpha=alpha)
            label = "uniform (paper)" if alpha == 0 else f"popularity^{alpha}"
            metrics[label] = evaluator.evaluate(
                model, max_users=SCALE.max_eval_users
            ).metrics
        return metrics

    metrics = benchmark.pedantic(run, rounds=1, iterations=1)

    table = ResultTable(
        headers=["Negative sampler", "HR@10", "NDCG@10"],
        title="Ablation: negative sampling (beauty, SASRec)",
    )
    for label, values in metrics.items():
        table.add_row(label, values["HR@10"], values["NDCG@10"])
    print("\n" + table.to_markdown())
    save_markdown(results_dir, "ablation_negatives", table.to_markdown())

    uniform = metrics["uniform (paper)"]["NDCG@10"]
    popularity = metrics["popularity^0.75"]["NDCG@10"]
    print(f"  uniform={uniform:.4f}  popularity={popularity:.4f}")
    assert uniform > metrics["Pop"]["NDCG@10"]
    assert popularity > metrics["Pop"]["NDCG@10"]
    ratio = min(uniform, popularity) / max(uniform, popularity)
    assert ratio > 0.5, "negative-sampling choice should not make-or-break SASRec"
