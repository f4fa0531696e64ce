"""Convergence-speed study runner."""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.convergence import (
    ConvergenceResult,
    ConvergenceTracker,
    run_convergence,
)

MICRO = ExperimentScale(
    dataset_scale=0.015,
    dim=16,
    max_length=12,
    epochs=2,
    pretrain_epochs=1,
    batch_size=64,
    max_eval_users=80,
    seed=0,
)


@pytest.fixture(scope="module")
def result() -> ConvergenceResult:
    return run_convergence("beauty", scale=MICRO)


class TestConvergence:
    def test_three_curves_recorded(self, result):
        assert set(result.tracker.curves) == {
            "SASRec (cold)",
            "SASRec-BPR (warm)",
            "CL4SRec (contrastive warm)",
        }

    def test_curve_lengths_match_epochs(self, result):
        for curve in result.tracker.curves.values():
            assert len(curve) == MICRO.epochs

    def test_bar_is_fraction_of_cold_final(self, result):
        cold_final = result.tracker.curves["SASRec (cold)"][-1]
        assert result.bar == pytest.approx(0.9 * cold_final)

    def test_cold_reaches_own_bar(self, result):
        # The bar is 90% of the cold start's own final score, so the
        # cold start reaches it by the last epoch at the latest.
        assert result.epochs_to_bar("SASRec (cold)") is not None

    def test_markdown(self, result):
        md = result.to_markdown()
        assert "Convergence study" in md
        assert "SASRec (cold)" in md
        assert "ep1" in md


class TestConvergenceTracker:
    def test_epochs_to_reach(self):
        tracker = ConvergenceTracker()
        for score in (0.1, 0.2, 0.3):
            tracker.record("a", score)
        assert tracker.epochs_to_reach("a", 0.2) == 2
        assert tracker.epochs_to_reach("a", 0.5) is None
        assert tracker.epochs_to_reach("missing", 0.1) is None
