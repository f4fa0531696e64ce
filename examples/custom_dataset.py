"""Bring your own interaction log.

Shows the full pipeline on raw (user, item, timestamp) triples — e.g.
exported from a production clickstream: 5-core filtering,
chronological sequence building, leave-one-out splitting, and CL4SRec
training, all without the synthetic generator.

Usage::

    python examples/custom_dataset.py
"""

import numpy as np

from repro import (
    CL4SRec,
    CL4SRecConfig,
    Evaluator,
    InteractionLog,
    SASRecConfig,
    SequenceDataset,
    TrainConfig,
)


def fake_clickstream(num_users: int = 800, seed: int = 3) -> InteractionLog:
    """Stand-in for reading a CSV export: session-like browsing where
    users walk between related item groups."""
    rng = np.random.default_rng(seed)
    users, items, times = [], [], []
    num_groups, group_size = 12, 30
    for user in range(num_users):
        group = int(rng.integers(num_groups))
        clock = float(rng.uniform(0, 1e6))
        for __ in range(int(rng.integers(5, 18))):
            if rng.random() < 0.25:  # drift to the "next" group
                group = (group + 1) % num_groups
            item = group * group_size + int(rng.geometric(0.15)) % group_size
            clock += float(rng.exponential(600.0))
            users.append(user)
            items.append(item)
            times.append(clock)
    return InteractionLog(
        np.asarray(users), np.asarray(items), np.asarray(times)
    )


def main() -> None:
    log = fake_clickstream()
    print(f"raw log: {log.statistics()}")

    # Exactly the paper's preprocessing: 5-core, chronological, LOO.
    dataset = SequenceDataset.from_log(log, name="clickstream")
    print(f"after 5-core: {dataset.statistics}")

    config = CL4SRecConfig(
        sasrec=SASRecConfig(
            dim=32, train=TrainConfig(epochs=5, batch_size=128, max_length=20, seed=3)
        ),
        augmentations=("crop", "reorder"),
        rates=0.5,
        pretrain=TrainConfig(epochs=3, batch_size=128, max_length=20, seed=3),
    )
    model = CL4SRec(dataset, config)
    model.fit(dataset)
    result = Evaluator(dataset).evaluate(model, max_users=600)
    print({k: round(v, 4) for k, v in result.metrics.items()})


if __name__ == "__main__":
    main()
