"""What do the models actually recommend? (beyond-accuracy diagnostics)

HR/NDCG reward putting the held-out item near the top, but say nothing
about catalogue coverage or popularity bias.  This example compares
Pop, SASRec and CL4SRec on:

* catalog coverage@10 — how much of the catalogue ever gets shown,
* popularity bias@10 — how blockbuster-heavy the lists are,
* exposure Gini@10 — how concentrated item exposure is,

alongside the usual accuracy metrics.

Usage::

    python examples/beyond_accuracy.py
"""

from repro import (
    CL4SRec,
    CL4SRecConfig,
    Pop,
    SASRec,
    SASRecConfig,
    TrainConfig,
    evaluate_model,
    load_dataset,
)
from repro.eval import recommendation_diagnostics


def main() -> None:
    dataset = load_dataset("beauty", scale=0.04, seed=3)
    train = TrainConfig(epochs=5, batch_size=128, max_length=25, seed=3)
    sasrec_config = SASRecConfig(dim=40, train=train)

    models = {"Pop": Pop().fit(dataset)}

    sasrec = SASRec(dataset, sasrec_config)
    sasrec.fit(dataset)
    models["SASRec"] = sasrec

    cl4srec = CL4SRec(
        dataset,
        CL4SRecConfig(
            sasrec=sasrec_config,
            augmentations=("crop", "mask", "reorder"),
            rates=0.5,
            pretrain=TrainConfig(epochs=3, batch_size=128, max_length=25, seed=3),
        ),
    )
    cl4srec.fit(dataset)
    models["CL4SRec"] = cl4srec

    print(
        f"{'model':10s} {'HR@10':>7s} {'NDCG@10':>8s} "
        f"{'coverage':>9s} {'pop-bias':>9s} {'gini':>6s}"
    )
    for name, model in models.items():
        accuracy = evaluate_model(model, dataset, max_users=600)
        lists = recommendation_diagnostics(model, dataset, k=10, max_users=600)
        print(
            f"{name:10s} {accuracy['HR@10']:7.4f} {accuracy['NDCG@10']:8.4f} "
            f"{lists['coverage@10']:9.3f} {lists['popularity_bias@10']:9.2f} "
            f"{lists['gini@10']:6.3f}"
        )

    print(
        "\nExpected shape: Pop shows one list to everyone (tiny coverage, "
        "max Gini);\npersonalized models spread exposure over far more of "
        "the catalogue."
    )


if __name__ == "__main__":
    main()
