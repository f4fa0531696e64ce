"""Peeking inside the encoder: embedding health.

Trains SASRec and CL4SRec on the same data and compares their item
spaces by **embedding anisotropy** — whether the item space collapsed
into a narrow cone (a classic failure mode contrastive training combats
via its uniformity pressure).

Usage::

    python examples/interpretability.py
"""

from repro import (
    CL4SRec,
    CL4SRecConfig,
    SASRec,
    SASRecConfig,
    TrainConfig,
    load_dataset,
)
from repro.analysis import embedding_statistics

MAX_LENGTH = 25


def main() -> None:
    dataset = load_dataset("beauty", scale=0.04, seed=9)
    train = TrainConfig(epochs=5, batch_size=128, max_length=MAX_LENGTH, seed=9)
    sasrec_config = SASRecConfig(dim=40, train=train)

    sasrec = SASRec(dataset, sasrec_config)
    sasrec.fit(dataset)

    cl4srec = CL4SRec(
        dataset,
        CL4SRecConfig(
            sasrec=sasrec_config,
            augmentations=("crop", "mask", "reorder"),
            rates=[0.9, 0.1, 0.5],
            pretrain=TrainConfig(
                epochs=3, batch_size=128, max_length=MAX_LENGTH, seed=9
            ),
        ),
    )
    cl4srec.fit(dataset)

    print(f"{'model':9s} {'anisotropy':>11s} {'mean norm':>10s}")
    for name, model in (("SASRec", sasrec), ("CL4SRec", cl4srec)):
        stats = embedding_statistics(
            model.encoder.item_embedding.weight.data[1 : dataset.num_items + 1]
        )
        print(f"{name:9s} {stats['anisotropy']:11.3f} {stats['mean_norm']:10.3f}")

    print(
        "\nReading: lower anisotropy = less collapsed item space "
        "(contrastive uniformity at work)."
    )


if __name__ == "__main__":
    main()
