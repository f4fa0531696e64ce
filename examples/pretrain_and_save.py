"""Pre-train once, fine-tune many times.

Demonstrates the checkpointing workflow a production team would use:
run the (expensive) contrastive pre-training stage once, persist the
encoder weights, then warm-start any number of supervised fine-tuning
runs from the saved state — including the joint-training variant.

Usage::

    python examples/pretrain_and_save.py
"""

import tempfile
from pathlib import Path

from repro import (
    CL4SRec,
    CL4SRecConfig,
    Evaluator,
    SASRecConfig,
    TrainConfig,
    load_dataset,
    pretrain_contrastive,
)
from repro.nn import read_archive, write_archive


def main() -> None:
    dataset = load_dataset("toys", scale=0.04, seed=11)
    train = TrainConfig(epochs=4, batch_size=128, max_length=25, seed=11)
    config = CL4SRecConfig(
        sasrec=SASRecConfig(dim=32, train=train),
        augmentations=("mask",),
        rates=0.5,
    )

    # Stage 1: contrastive pre-training only.
    model = CL4SRec(dataset, config)
    history = pretrain_contrastive(
        model,
        dataset,
        TrainConfig(epochs=3, batch_size=128, max_length=25, seed=11),
    )
    print(
        f"pre-training: loss {history.losses[0]:.3f} -> {history.losses[-1]:.3f}, "
        f"in-batch retrieval accuracy {history.accuracies[-1]:.1%}"
    )

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "cl4srec_pretrained.npz"
        # Atomic write + SHA-256 sidecar; the read verifies the checksum.
        write_archive(checkpoint, model.state_dict())
        print(f"saved {checkpoint.name} ({checkpoint.stat().st_size / 1024:.0f} KiB)")

        # Stage 2 (possibly much later / elsewhere): load and fine-tune
        # directly from the checkpoint, skipping the contrastive stage.
        finetuned = CL4SRec(dataset, config)
        finetuned.load_state_dict(read_archive(checkpoint))
        finetuned.fit(dataset, skip_pretrain=True)

    result = Evaluator(dataset).evaluate(finetuned, max_users=600)
    print({k: round(v, 4) for k, v in result.metrics.items()})


if __name__ == "__main__":
    main()
