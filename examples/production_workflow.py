"""A production-flavoured workflow: temporal split, honest tuning, tracking.

Leave-one-out (the paper's protocol) leaks global future information
into training.  This example shows the pipeline a production team would
run instead:

1. split the raw log at global time cutoffs (`temporal_split`),
2. grid-search CL4SRec's augmentation rate with validation-split
   selection (`run_sweep` — test metrics only for the winner),
3. record every run in a JSON registry (`RunRegistry`) for later
   comparison.

Usage::

    python examples/production_workflow.py
"""

import tempfile

from repro import (
    CL4SRec,
    CL4SRecConfig,
    SASRecConfig,
    SequenceDataset,
    SyntheticConfig,
    TrainConfig,
    generate_log,
)
from repro.data import temporal_split
from repro.experiments import RunRegistry, TrackedRun, grid, run_sweep


def main() -> None:
    # 1. Raw log → global temporal split (80/10/10 by time).
    log = generate_log(
        SyntheticConfig(
            num_users=900, num_items=400, num_interests=10, mean_length=10.0, seed=2
        )
    )
    split = temporal_split(log, valid_fraction=0.1, test_fraction=0.1)
    print(
        f"temporal split: train={len(split.train)}  valid={len(split.valid)} "
        f"test={len(split.test)} interactions"
    )

    # Train-time dataset comes from the pre-cutoff log only; its own
    # leave-one-out targets serve as the tuning signal.
    dataset = SequenceDataset.from_log(split.train, name="pre-cutoff", min_count=3)
    print(f"training dataset: {dataset.statistics}")

    train = TrainConfig(epochs=4, batch_size=128, max_length=20, seed=2)

    def build_and_fit(params):
        config = CL4SRecConfig(
            sasrec=SASRecConfig(dim=32, train=train),
            augmentations=("mask",),
            rates=params["gamma"],
            pretrain=TrainConfig(epochs=2, batch_size=128, max_length=20, seed=2),
        )
        model = CL4SRec(dataset, config)
        model.fit(dataset)
        return model

    with tempfile.TemporaryDirectory() as tmp:
        registry = RunRegistry(tmp)

        # 2. Honest grid search: select on validation, report test once.
        with TrackedRun(
            registry, "gamma-sweep", {"grid": [0.1, 0.3, 0.5]}
        ) as run:
            sweep = run_sweep(
                build_and_fit,
                dataset,
                grid(gamma=[0.1, 0.3, 0.5]),
                metric="HR@10",
                max_eval_users=500,
            )
            run.metrics = dict(sweep.best.test_metrics)

        print()
        print(sweep.to_markdown())
        print(
            f"\nwinner: gamma={sweep.best.params['gamma']} — "
            f"test HR@10 {sweep.best.test_metrics['HR@10']:.4f}"
        )

        # 3. The registry remembers everything.
        best = registry.best("gamma-sweep", "HR@10")
        print(
            f"registry: run {best.run_id} took {best.duration_seconds:.0f}s, "
            f"params={best.params}"
        )


if __name__ == "__main__":
    main()
