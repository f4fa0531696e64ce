"""Does contrastive learning help when data is scarce? (a mini Figure 6)

Trains SASRec and CL4SRec (item mask, γ=0.5) on 20 %, 60 % and 100 % of
the training users of a 5 % beauty sample, then prints the NDCG@10 table
per fraction, how much each model's NDCG@10 degrades from 100 % down to
20 % of the users, and whether CL4SRec is above SASRec at every fraction.

The paper's RQ4 headline is that CL4SRec's edge grows as data shrinks.
This small run does not show it: at seed 7 CL4SRec degrades more than
SASRec.  The claim gets its seeded check in ROADMAP item 6.

Usage::

    python examples/data_sparsity.py
"""

from repro.experiments import ExperimentScale, run_figure6


def main() -> None:
    scale = ExperimentScale(
        dataset_scale=0.05,
        dim=32,
        max_length=25,
        epochs=5,
        pretrain_epochs=3,
        batch_size=128,
        max_eval_users=800,
        seed=7,
    )
    result = run_figure6(
        dataset_name="beauty", fractions=(0.2, 0.6, 1.0), scale=scale
    )
    print(result.to_markdown())
    print()
    for model in ("SASRec", "CL4SRec"):
        print(
            f"{model}: NDCG@10 degrades {result.degradation(model):+.1f}% "
            "from 100% data down to 20%"
        )
    cl, sas = result.series["CL4SRec"], result.series["SASRec"]
    wins = all(cl[f]["NDCG@10"] > sas[f]["NDCG@10"] for f in result.fractions)
    print(f"CL4SRec above SASRec at every fraction: {'yes' if wins else 'no'}")


if __name__ == "__main__":
    main()
