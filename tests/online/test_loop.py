"""End-to-end OnlineLoop: decisions, determinism, rollback, live swap."""

import numpy as np
import pytest

from repro.data.synthetic import synthesize_trace
from repro.models.registry import build_model
from repro.obs import RunObserver, read_events
from repro.online import (
    FineTuneConfig,
    GateConfig,
    ModelVersionStore,
    OnlineLoop,
    OnlineLoopConfig,
)
from repro.serve.engine import ModelSwapError, RecommendationEngine

from .conftest import SCALE

pytestmark = pytest.mark.online


def _loop_config(tmp_path, rounds=2, **gate_overrides):
    gate = dict(epsilon=1.0, min_shadow_users=4, min_new_sequences=8)
    gate.update(gate_overrides)
    return OnlineLoopConfig(
        rounds=rounds,
        events_per_round=60,
        holdout_every=4,
        seed=7,
        shadow_requests=16,
        gate=GateConfig(**gate),
        finetune=FineTuneConfig(
            epochs=1,
            batch_size=32,
            max_length=12,
            checkpoint_dir=str(tmp_path / "rounds"),
        ),
    )


def _build_loop(tmp_path, dataset, trace_events=90, obs=None, config=None):
    model = build_model("CL4SRec", dataset, SCALE)
    engine = RecommendationEngine(model, dataset)
    trainer = build_model("CL4SRec", dataset, SCALE)
    trace = synthesize_trace(
        num_events=trace_events,
        user_pool=dataset.num_users,
        num_items=dataset.num_items,
        hot_users=40,
        seed=17,
    )
    store = ModelVersionStore(tmp_path / "versions")
    loop = OnlineLoop(
        engine,
        trainer,
        trace,
        store,
        config or _loop_config(tmp_path),
        obs=obs,
    )
    return loop, engine, store


def test_two_rounds_promote_then_refuse(tmp_path, tiny_dataset):
    """A 90-event trace at 60 events/round: round 0 promotes (tolerant
    gate), round 1 sees the partial remainder but still trains; shrink
    the trace via the ingestor to force the documented refusal path."""
    loop, engine, store = _build_loop(tmp_path, tiny_dataset, trace_events=65)
    result = loop.run()
    assert [r.decision for r in result.rounds] == ["promote", "refuse"]
    assert result.rounds[1].reason == "insufficient_data"
    assert result.rounds[1].stream_exhausted
    assert result.promotions == 1 and result.refusals == 1
    # model_version advanced exactly once, on the promotion.
    assert result.final_model_version == 2
    assert engine.model_version == 2
    decisions = [(rec.decision) for rec in store.records]
    assert decisions == ["baseline", "promoted"]
    engine.close()


def test_promoted_weights_actually_serve(tmp_path, tiny_dataset):
    loop, engine, store = _build_loop(tmp_path, tiny_dataset, trace_events=60)
    before = {
        name: np.copy(values)
        for name, values in engine.model.state_dict().items()
    }
    result = loop.run(rounds=1)
    assert result.rounds[0].decision == "promote"
    after = engine.model.state_dict()
    changed = any(
        not np.array_equal(before[name], after[name]) for name in before
    )
    assert changed, "promotion did not change the serving weights"
    # The engine's weights equal the promoted archive bit-for-bit.
    promoted = store.load_state(store.latest_serving().version)
    for name, values in promoted.items():
        np.testing.assert_array_equal(values, after[name])
    engine.close()


def test_a_round_stays_float32(tmp_path, tiny_dataset):
    """Fine-tune, publish and swap all run in the one precision."""
    loop, engine, store = _build_loop(tmp_path, tiny_dataset, trace_events=60)
    assert loop.run(rounds=1).rounds[0].decision == "promote"
    for model in (engine.model, loop.trainer_model):
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    assert engine.index.matrix.dtype == np.float32
    promoted = store.load_state(store.latest_serving().version)
    assert {values.dtype for values in promoted.values()} == {np.dtype(np.float32)}
    engine.close()


def test_loop_is_bit_reproducible(tmp_path, tiny_dataset):
    def run(tag):
        loop, engine, __ = _build_loop(
            tmp_path / tag, tiny_dataset, trace_events=65
        )
        result = loop.run()
        engine.close()
        return [
            (
                r.round,
                r.decision,
                r.reason,
                r.new_sequences,
                r.shadow_users,
                r.model_version,
                tuple(sorted((r.shadow or {}).get("deltas", {}).items())),
                tuple(r.train_losses),
            )
            for r in result.rounds
        ]

    assert run("a") == run("b")


def test_refusal_rolls_trainer_back(tmp_path, tiny_dataset):
    """A refused candidate must not leak into the next round's start."""
    loop, engine, store = _build_loop(
        tmp_path,
        tiny_dataset,
        trace_events=120,
        config=_loop_config(tmp_path, rounds=1, epsilon=-2.0),
    )
    # epsilon < -1 means even a perfect candidate regresses past the
    # gate (metrics live in [0,1]) — every round refuses.
    result = loop.run()
    assert result.rounds[0].decision == "refuse"
    assert result.rounds[0].reason.startswith("metric_regression:")
    assert engine.model_version == 1
    # Trainer restored to the baseline weights.
    baseline = store.load_state(store.latest_serving().version)
    for name, values in baseline.items():
        np.testing.assert_array_equal(
            values, loop.trainer_model.state_dict()[name]
        )
    assert store.records[-1].decision == "refused"
    engine.close()


def test_failed_swap_self_check_rolls_back(tmp_path, tiny_dataset, monkeypatch):
    """A candidate that passes the gate but fails swap_model's
    self-check is recorded as refused (swap_failed) and serving keeps
    the previous weights."""
    loop, engine, store = _build_loop(tmp_path, tiny_dataset, trace_events=60)

    def exploding_swap(checkpoint):
        raise ModelSwapError("self-check failed (previous weights restored)")

    monkeypatch.setattr(engine, "swap_model", exploding_swap)
    result = loop.run(rounds=1)
    record = result.rounds[0]
    assert record.decision == "refuse"
    assert record.reason == "swap_failed"
    assert engine.model_version == 1
    assert store.records[-1].decision == "refused"
    assert store.records[-1].reason == "swap_failed"
    # The loop stays usable: trainer is back on baseline weights.
    baseline = store.load_state(store.latest_serving().version)
    for name, values in baseline.items():
        np.testing.assert_array_equal(
            values, loop.trainer_model.state_dict()[name]
        )
    engine.close()


def test_obs_events_emitted(tmp_path, tiny_dataset):
    obs = RunObserver.to_directory(str(tmp_path / "obs"))
    loop, engine, __ = _build_loop(
        tmp_path, tiny_dataset, trace_events=65, obs=obs
    )
    loop.run()
    engine.close()
    obs.close()
    events = read_events(str(tmp_path / "obs"))
    names = [e["event"] for e in events]
    assert names.count("online_round") == 2
    assert names.count("online_ingest") == 2
    assert "online_promote" in names
    assert "online_refuse" in names
    assert "shadow_eval" in names
    round_events = [e for e in events if e["event"] == "online_round"]
    for entry in round_events:
        assert {"round", "decision", "reason", "buffer_depth",
                "model_version", "duration_s"} <= set(entry)
    promote = next(e for e in events if e["event"] == "online_promote")
    assert promote["model_version"] == 2
    assert obs.registry.counter("online_rounds").value == 2
    assert obs.registry.counter("online_promotions").value == 1
    assert obs.registry.counter("online_refusals").value == 1
    assert obs.registry.gauge("replay_buffer_depth").value > 0


def test_live_server_swap_serializes(tmp_path, tiny_dataset):
    """With a server attached, promotions go through server.reload and
    responses stamp the new model_version."""
    import threading

    from repro.serve import RecommendationServer

    model = build_model("CL4SRec", tiny_dataset, SCALE)
    engine = RecommendationEngine(model, tiny_dataset)
    server = RecommendationServer(engine, port=0, max_inflight=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        trainer = build_model("CL4SRec", tiny_dataset, SCALE)
        trace = synthesize_trace(
            num_events=60,
            user_pool=tiny_dataset.num_users,
            num_items=tiny_dataset.num_items,
            hot_users=40,
            seed=17,
        )
        store = ModelVersionStore(tmp_path / "versions")
        loop = OnlineLoop(
            engine,
            trainer,
            trace,
            store,
            _loop_config(tmp_path, rounds=1),
            server=server,
        )
        result = loop.run()
        assert result.rounds[0].decision == "promote"
        assert server.health()["model_version"] == 2
    finally:
        server.shutdown()
        thread.join(timeout=5)
    engine.close()


@pytest.mark.parametrize("metric", ["HR@20", "NDCG@1", "Recall@10"])
def test_a_gate_metric_the_shadow_evaluator_lacks_is_refused_at_config_time(metric):
    with pytest.raises(ValueError, match="not computed by the shadow evaluator"):
        OnlineLoopConfig(gate=GateConfig(metrics=(metric,)))


def test_every_shadow_metric_is_a_valid_gate_metric():
    config = OnlineLoopConfig(
        ks=(5, 20), gate=GateConfig(metrics=("HR@5", "NDCG@20", "MRR"))
    )
    assert config.gate.metrics == ("HR@5", "NDCG@20", "MRR")
