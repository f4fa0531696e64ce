"""Quickstart: train CL4SRec on a small synthetic "Beauty" dataset.

Runs in ~1 minute on a laptop CPU.  Demonstrates the core public API:
dataset loading, model construction, the two-stage contrastive
pipeline, and full-ranking evaluation.

Usage::

    python examples/quickstart.py
"""

from repro import (
    CL4SRec,
    CL4SRecConfig,
    Evaluator,
    Pop,
    SASRec,
    SASRecConfig,
    TrainConfig,
    load_dataset,
)


def main() -> None:
    # A 5%-scale synthetic stand-in for Amazon Beauty (see DESIGN.md).
    dataset = load_dataset("beauty", scale=0.05, seed=7)
    print(f"dataset: {dataset.name}  stats={dataset.statistics}")

    train = TrainConfig(epochs=6, batch_size=128, max_length=30, seed=7)
    sasrec_config = SASRecConfig(dim=48, train=train)

    evaluator = Evaluator(dataset)  # full ranking on the test split

    # Non-personalized baseline for context.
    pop = Pop().fit(dataset)
    pop_result = evaluator.evaluate(pop, max_users=1000)

    # The SASRec baseline: supervised next-item training only.
    sasrec = SASRec(dataset, sasrec_config)
    sasrec.fit(dataset)
    sasrec_result = evaluator.evaluate(sasrec, max_users=1000)

    # CL4SRec: contrastive pre-training over crop/mask/reorder views,
    # then the same supervised fine-tuning.
    cl_config = CL4SRecConfig(
        sasrec=sasrec_config,
        augmentations=("crop", "mask", "reorder"),
        rates=0.5,
        pretrain=TrainConfig(epochs=3, batch_size=128, max_length=30, seed=7),
    )
    cl4srec = CL4SRec(dataset, cl_config)
    cl4srec.fit(dataset)
    cl_result = evaluator.evaluate(cl4srec, max_users=1000)

    print(f"\n{'model':10s} {'HR@10':>8s} {'NDCG@10':>8s}")
    for name, result in [
        ("Pop", pop_result),
        ("SASRec", sasrec_result),
        ("CL4SRec", cl_result),
    ]:
        print(f"{name:10s} {result['HR@10']:8.4f} {result['NDCG@10']:8.4f}")

    gain = 100 * (cl_result["NDCG@10"] / sasrec_result["NDCG@10"] - 1)
    print(f"\nCL4SRec improves NDCG@10 over SASRec by {gain:+.1f}%")


if __name__ == "__main__":
    main()
