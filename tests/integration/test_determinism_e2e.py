"""End-to-end determinism: seed in, bits out.

Two train→eval pipelines run with the same seed must agree *exactly* —
every deterministic metric value recorded in ``obs.jsonl`` (losses,
grad norms, accuracies, eval metrics) is bit-identical, and the final
top-k recommendation lists match element for element.  A third run with
a different seed must diverge, proving the agreement is real
determinism rather than constant output.

Wall-clock fields (``ts``, ``epoch_seconds``, ``items_per_sec``,
latency histograms) are intentionally excluded from the comparison.
"""

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.trainer import train_joint
from repro.eval.evaluator import Evaluator, candidate_scores
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig
from repro.obs import RunObserver, read_events
from tests.conftest import make_tiny_dataset

TOP_K = 10
NUM_PROBE_USERS = 20

# Deterministic numeric fields per event type; everything else is
# wall-clock noise and excluded on purpose.
DETERMINISTIC_FIELDS = {
    "joint_epoch": ("epoch", "loss", "rec_loss", "cl_loss", "grad_norm", "lr"),
    "eval": ("num_users", "candidates_scored", "metrics"),
}


def run_pipeline(tmp_path, label: str, seed: int, pipeline: str = "reference"):
    """One full train→eval run; returns (metric rows, top-k lists)."""
    dataset = make_tiny_dataset()
    model = CL4SRec(
        dataset,
        CL4SRecConfig(
            sasrec=SASRecConfig(
                dim=16,
                train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=seed),
            ),
            augmentations=("crop", "mask", "reorder"),
            rates=0.5,
            mode="joint",
            joint=TrainConfig(
                epochs=2,
                batch_size=32,
                max_length=12,
                seed=seed,
                pipeline=pipeline,
            ),
        ),
    )
    run_dir = tmp_path / label
    obs = RunObserver.to_directory(run_dir, meta={"seed": seed})
    try:
        train_joint(model, dataset, model.cl_config.joint, obs=obs)
        Evaluator(dataset, split="test").evaluate(model, obs=obs)
    finally:
        obs.close()

    rows = []
    for event in read_events(run_dir):
        fields = DETERMINISTIC_FIELDS.get(event["event"])
        if fields is None:
            continue
        rows.append((event["event"], {name: event[name] for name in fields}))

    users = dataset.evaluation_users("test")[:NUM_PROBE_USERS]
    scores = np.asarray(candidate_scores(model, dataset, users, split="test"))
    scores[:, 0] = -np.inf  # padding column
    top_k = np.argsort(-scores, axis=1)[:, :TOP_K]
    return rows, top_k


@pytest.mark.slow
class TestDeterminismEndToEnd:
    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_same_seed_bit_identical_different_seed_diverges(
        self, tmp_path, pipeline
    ):
        # The vectorized path draws from private child rng streams;
        # determinism must hold there as on the reference path.
        rows_a, topk_a = run_pipeline(tmp_path, "run_a", seed=0, pipeline=pipeline)
        rows_b, topk_b = run_pipeline(tmp_path, "run_b", seed=0, pipeline=pipeline)
        rows_c, topk_c = run_pipeline(tmp_path, "run_c", seed=1, pipeline=pipeline)

        # Same seed: every deterministic metric value is bit-identical …
        assert rows_a == rows_b
        # … and the recommendations agree exactly.
        np.testing.assert_array_equal(topk_a, topk_b)

        # Different seed: the metric stream must differ …
        assert rows_a != rows_c
        # … and so must at least one recommendation list.
        assert not np.array_equal(topk_a, topk_c)
