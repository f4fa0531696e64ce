"""Peeking inside the encoder: attention probes and embedding health.

Trains SASRec and CL4SRec on the same data and compares what their
encoders actually do:

* **recency profile** — how much the user-representation position
  attends to the last item, the one before, ... (sequence models are
  expected to be recency-biased);
* **attention entropy** — how peaky the attention is;
* **embedding anisotropy** — whether the item space collapsed into a
  narrow cone (a classic failure mode contrastive training combats via
  its uniformity pressure).

Usage::

    python examples/interpretability.py
"""

import numpy as np

from repro import (
    CL4SRec,
    CL4SRecConfig,
    SASRec,
    SASRecConfig,
    TrainConfig,
    load_dataset,
)
from repro.analysis import (
    attention_entropy,
    attention_maps,
    embedding_statistics,
    recency_profile,
)
from repro.data.loaders import pad_left

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

    users = dataset.evaluation_users("test")[:200]
    batch = np.stack(
        [pad_left(dataset.full_sequence(int(u)), MAX_LENGTH) for u in users]
    )

    print(f"{'model':9s} {'attn entropy':>13s} {'anisotropy':>11s}  recency profile (offsets 0..4)")
    for name, model in (("SASRec", sasrec), ("CL4SRec", cl4srec)):
        maps = attention_maps(model.encoder, batch)[-1]
        entropy = attention_entropy(maps, batch == 0)
        stats = embedding_statistics(
            model.encoder.item_embedding.weight.data[1 : dataset.num_items + 1]
        )
        profile = recency_profile(model, dataset, users, max_offsets=5)
        profile_str = " ".join(f"{p:.2f}" for p in profile)
        print(
            f"{name:9s} {entropy:13.3f} {stats['anisotropy']:11.3f}  [{profile_str}]"
        )

    print(
        "\nReading: lower anisotropy = less collapsed item space "
        "(contrastive uniformity at work); the recency profile shows the "
        "representation attending most to the newest items."
    )


if __name__ == "__main__":
    main()
