"""Beyond random views: informative augmentations and BERT4Rec.

The paper's future-work direction asks for augmentations that respect
item semantics.  This example:

1. builds an item-correlation model from co-occurrence statistics,
2. trains CL4SRec with the *substitute* / *insert* operators (the
   CoSeRec follow-up) instead of random crop/mask/reorder,
3. compares against the paper's random operators and the BERT4Rec
   bidirectional baseline,
4. reports alignment/uniformity of the learned representations
   (Wang & Isola 2020) to show why contrastive training helps.

Usage::

    python examples/informative_augmentations.py
"""

from repro import (
    CL4SRec,
    CL4SRecConfig,
    SASRecConfig,
    TrainConfig,
    evaluate_model,
    load_dataset,
)
from repro.analysis import representation_quality
from repro.augment import Insert, ItemCorrelation, Substitute
from repro.models import BERT4Rec, BERT4RecConfig


def main() -> None:
    dataset = load_dataset("toys", scale=0.04, seed=5)
    print(f"dataset: {dataset.statistics}")

    train = TrainConfig(epochs=5, batch_size=128, max_length=25, seed=5)
    sasrec = SASRecConfig(dim=40, train=train)
    pretrain = TrainConfig(epochs=3, batch_size=128, max_length=25, seed=5)

    # Item correlation from the training sequences alone.
    correlation = ItemCorrelation(dataset.num_items, window=3, top_k=10)
    correlation.fit(dataset.train_sequences)
    example_item = dataset.train_sequences[0][0]
    neighbours, weights = correlation.most_similar(int(example_item))
    print(
        f"item {example_item}: most similar items "
        f"{neighbours[weights > 0][:5].tolist()}"
    )

    results = {}
    quality = {}

    # Paper's random operators.
    random_cl = CL4SRec(
        dataset,
        CL4SRecConfig(
            sasrec=sasrec,
            augmentations=("crop", "mask", "reorder"),
            rates=0.5,
            pretrain=pretrain,
        ),
    )
    random_cl.fit(dataset)
    results["CL4SRec (random aug)"] = evaluate_model(
        random_cl, dataset, max_users=700
    )
    quality["CL4SRec (random aug)"] = representation_quality(
        random_cl, dataset, max_length=25
    )

    # Informative operators (CoSeRec direction).
    informative_cl = CL4SRec(
        dataset,
        CL4SRecConfig(sasrec=sasrec, pretrain=pretrain),
        operators=[
            Substitute(0.3, correlation),
            Insert(0.3, correlation),
        ],
    )
    informative_cl.fit(dataset)
    results["CL4SRec (informative aug)"] = evaluate_model(
        informative_cl, dataset, max_users=700
    )
    quality["CL4SRec (informative aug)"] = representation_quality(
        informative_cl, dataset, max_length=25
    )

    # Bidirectional Cloze baseline.
    bert = BERT4Rec(
        dataset,
        BERT4RecConfig(
            dim=40,
            train=TrainConfig(epochs=5, batch_size=128, max_length=25, seed=5),
        ),
    )
    bert.fit(dataset)
    results["BERT4Rec"] = evaluate_model(bert, dataset, max_users=700)

    print(f"\n{'model':28s} {'HR@10':>8s} {'NDCG@10':>8s}")
    for name, result in results.items():
        print(f"{name:28s} {result['HR@10']:8.4f} {result['NDCG@10']:8.4f}")

    print(f"\n{'model':28s} {'alignment↓':>11s} {'uniformity↓':>12s}")
    for name, q in quality.items():
        print(f"{name:28s} {q['alignment']:11.4f} {q['uniformity']:12.4f}")


if __name__ == "__main__":
    main()
