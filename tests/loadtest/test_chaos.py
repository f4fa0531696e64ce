"""The deterministic serving-chaos scenario end to end (marker: chaos)."""

import threading

import pytest

from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import FaultInjector
from repro.loadtest import run_chaos
from repro.serve import (
    BreakerConfig,
    RecommendationEngine,
    RecommendationServer,
    ResilienceConfig,
)

pytestmark = pytest.mark.chaos

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def chaos_stack(tiny_dataset, tmp_path_factory):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    ckpt_dir = tmp_path_factory.mktemp("chaos-ckpts")
    CheckpointManager(ckpt_dir).save(
        1, {f"model/{k}": v for k, v in model.state_dict().items()}
    )
    faults = FaultInjector(seed=0)
    fresh = build_model("SASRec", tiny_dataset, SCALE)
    engine = RecommendationEngine.from_checkpoint(
        ckpt_dir,
        fresh,
        tiny_dataset,
        max_batch_size=8,
        resilience=ResilienceConfig(
            breaker=BreakerConfig(
                window=16,
                min_calls=4,
                failure_threshold=0.5,
                reset_timeout_s=1.0,
                half_open_probes=2,
            )
        ),
        faults=faults,
    )
    server = RecommendationServer(
        engine, port=0, max_inflight=2, retry_after_s=0.1
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, faults
    server.shutdown()
    thread.join(timeout=5)


class TestChaosScenario:
    def test_all_invariants_hold(self, chaos_stack, tmp_path):
        server, faults = chaos_stack
        report = run_chaos(server, faults, str(tmp_path / "work"))
        detail = "\n".join(
            f"{name}: {'PASS' if ok else 'FAIL'} ({info})"
            for name, ok, info in report.invariants
        )
        assert report.ok, f"chaos invariants failed:\n{detail}"
        checked = {name for name, __, __ in report.invariants}
        assert {
            "warmup_full_quality",
            "slow_window_served",
            "burst_no_lost_requests",
            "burst_shed_structured",
            "failures_degrade_not_500",
            "breaker_opened",
            "corrupt_reload_refused",
            "live_reload_succeeded",
            "no_half_loaded_model",
            "breaker_recovered",
            "all_requests_accounted",
            "p99_bounded",
            "success_payloads_well_formed",
            "versions_monotone_per_client",
            "metrics_accounted",
        } <= checked
        # The reload phase really moved the generation counter.
        assert report.model_version_end == report.model_version_start + 1
        # And the report serializes (the CI job writes it as JSON).
        as_dict = report.to_dict()
        assert as_dict["ok"] is True
        assert as_dict["requests"] == len(report.outcomes)
        assert "PASS" in report.to_markdown()
