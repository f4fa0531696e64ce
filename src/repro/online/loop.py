"""The online learning loop: ingest → fine-tune → shadow-gate → swap.

One :class:`OnlineLoop` round:

1. **Ingest** — consume a span of the traffic stream into the bounded
   replay buffer (training side) and the shadow holdout buffer.
2. **Precheck** — refuse cheaply (no training) when the round ingested
   too little fresh data or the holdout is too thin to judge a model.
3. **Fine-tune** — run the incremental trainer on the replay window,
   starting from the currently promoted weights.
4. **Publish** — write the candidate into the
   :class:`~repro.online.versions.ModelVersionStore` (checksummed,
   ``swap_model``-compatible).
5. **Shadow-evaluate + gate** — old vs new on held-out traffic; the
   gate promotes or refuses and the verdict lands in the store.
6. **Swap or roll back** — a promotion goes through
   ``engine.swap_model`` (or the HTTP server's serialized ``reload``
   when one is attached), bumping ``model_version`` exactly once; any
   refusal — including a failed swap self-check — restores the trainer
   to the promoted weights so the next round starts clean.

Determinism: all randomness flows from one ``SeedSequence`` spawning
one child stream per round, the stream split is counter-based, and the
shadow legs are pure functions of weights + holdout — so a fixed seed
reproduces every decision and every shadow metric bit-for-bit (the
``ts`` fields of obs events are the only nondeterministic output).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.preprocessing import SequenceDataset
from repro.nn.serialization import CheckpointError
from repro.online.buffer import ReplayBuffer
from repro.online.finetune import (
    FineTuneConfig,
    FineTuneRoundResult,
    IncrementalFineTuner,
)
from repro.online.shadow import (
    GateConfig,
    GateDecision,
    PromotionGate,
    REASON_NO_TRAINABLE_DATA,
    REASON_SWAP_FAILED,
    shadow_evaluate,
)
from repro.online.stream import StreamIngestor
from repro.online.versions import ModelVersionStore
from repro.serve.engine import ModelSwapError

__all__ = ["OnlineLoop", "OnlineLoopConfig", "OnlineLoopResult", "RoundRecord"]


@dataclass
class OnlineLoopConfig:
    """Knobs of the whole loop (see docs/ONLINE_LEARNING.md)."""

    rounds: int = 1
    #: Traffic events (HTTP-level; a batch counts once) per round.
    events_per_round: int = 200
    buffer_capacity: int = 2048
    holdout_capacity: int = 512
    #: Every N-th eligible sequence feeds the shadow holdout.
    holdout_every: int = 4
    min_sequence_length: int = 3
    #: Evaluator cutoffs for the shadow ranking leg.
    ks: tuple[int, ...] = (5, 10)
    #: Top-k width and request cap of the shadow replay leg.
    shadow_k: int = 10
    shadow_requests: int = 64
    seed: int = 0
    gate: GateConfig = field(default_factory=GateConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)

    def __post_init__(self) -> None:
        # The shadow evaluator computes HR@k / NDCG@k for k in ``ks``
        # plus MRR; a gate on anything else could only ever refuse.
        known = ["MRR"] + [f"{name}@{k}" for k in self.ks for name in ("HR", "NDCG")]
        unknown = [metric for metric in self.gate.metrics if metric not in known]
        if unknown:
            raise ValueError(
                f"gate metric(s) {unknown} are not computed by the shadow "
                f"evaluator (ks={tuple(self.ks)}); choose from {known}"
            )


@dataclass
class RoundRecord:
    """Everything one round decided, for the report and the tests."""

    round: int
    decision: str = "refuse"
    reason: str = ""
    detail: str | None = None
    events: int = 0
    new_sequences: int = 0
    holdout_sequences: int = 0
    skipped_payloads: int = 0
    stream_exhausted: bool = False
    buffer_depth: int = 0
    holdout_depth: int = 0
    shadow_users: int = 0
    candidate_version: int | None = None
    model_version: int = 0
    train_losses: list[float] = field(default_factory=list)
    shadow: dict | None = None
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "decision": self.decision,
            "reason": self.reason,
            "detail": self.detail,
            "events": self.events,
            "new_sequences": self.new_sequences,
            "holdout_sequences": self.holdout_sequences,
            "skipped_payloads": self.skipped_payloads,
            "stream_exhausted": self.stream_exhausted,
            "buffer_depth": self.buffer_depth,
            "holdout_depth": self.holdout_depth,
            "shadow_users": self.shadow_users,
            "candidate_version": self.candidate_version,
            "model_version": self.model_version,
            "train_losses": self.train_losses,
            "shadow": self.shadow,
            "duration_s": self.duration_s,
        }


@dataclass
class OnlineLoopResult:
    """The loop's report (``repro online --output`` serializes this)."""

    rounds: list[RoundRecord] = field(default_factory=list)
    promotions: int = 0
    refusals: int = 0
    final_model_version: int = 0
    store_directory: str = ""

    def to_dict(self) -> dict:
        return {
            "rounds": [record.to_dict() for record in self.rounds],
            "promotions": self.promotions,
            "refusals": self.refusals,
            "final_model_version": self.final_model_version,
            "store_directory": self.store_directory,
        }


def _copy_state(state: dict) -> dict:
    return {name: np.copy(values) for name, values in state.items()}


class OnlineLoop:
    """Drives rounds against one serving engine.

    Parameters
    ----------
    engine:
        The live :class:`~repro.serve.engine.RecommendationEngine`.
        Its current weights are the round-0 baseline; promotions reach
        it via ``swap_model``.
    trainer_model:
        A second model instance of the same architecture (build it with
        :func:`repro.models.registry.build_model`).  The loop
        immediately aligns its weights with the engine's, then
        fine-tunes it in place — the serving weights are never touched
        by the optimizer.
    source:
        A :class:`~repro.data.synthetic.TrafficTrace` or an iterator of
        its event dicts.
    store:
        The :class:`~repro.online.versions.ModelVersionStore` receiving
        every baseline/candidate version and gate verdict.
    server:
        Optional :class:`~repro.serve.server.RecommendationServer`
        wrapping ``engine``; when given, promotions go through
        ``server.reload`` so the swap serializes with in-flight
        requests behind the server lock.
    """

    def __init__(
        self,
        engine,
        trainer_model,
        source,
        store: ModelVersionStore,
        config: OnlineLoopConfig | None = None,
        obs=None,
        server=None,
    ) -> None:
        self.engine = engine
        self.trainer_model = trainer_model
        self.store = store
        self.config = config if config is not None else OnlineLoopConfig()
        self.obs = obs
        self.server = server
        self.dataset: SequenceDataset = engine.dataset
        self.ingestor = StreamIngestor(
            source,
            dataset=self.dataset,
            holdout_every=self.config.holdout_every,
            min_length=self.config.min_sequence_length,
        )
        self.buffer = ReplayBuffer(self.config.buffer_capacity)
        self.holdout = ReplayBuffer(self.config.holdout_capacity)
        self.finetuner = IncrementalFineTuner(
            trainer_model, self.config.finetune, obs=obs
        )
        self.gate = PromotionGate(self.config.gate)
        self._seed_seq = np.random.SeedSequence(self.config.seed)
        self._rounds_run = 0

        # The trainer starts from the serving weights, and the store's
        # first record is the pre-loop baseline so every later candidate
        # has a parent to roll back to.
        trainer_model.load_state_dict(_copy_state(engine.model.state_dict()))
        trainer_model.eval()
        if self.store.latest() is None:
            self.store.publish(engine.model.state_dict(), decision="baseline")

    # ------------------------------------------------------------------
    def _rollback_trainer(self) -> None:
        """Reset the trainer to the newest promoted/baseline weights."""
        serving = self.store.latest_serving()
        if serving is not None and serving.archived:
            self.trainer_model.load_state_dict(self.store.load_state(serving.version))
        else:
            self.trainer_model.load_state_dict(
                _copy_state(self.engine.model.state_dict())
            )
        self.trainer_model.eval()

    def _swap(self, checkpoint: str) -> dict:
        if self.server is not None:
            return self.server.reload(checkpoint)
        return self.engine.swap_model(checkpoint)

    def _emit_round(self, record: RoundRecord) -> None:
        if self.obs is None:
            return
        self.obs.event(
            "online_round",
            round=record.round,
            decision=record.decision,
            reason=record.reason,
            events=record.events,
            new_sequences=record.new_sequences,
            buffer_depth=record.buffer_depth,
            holdout_depth=record.holdout_depth,
            shadow_users=record.shadow_users,
            candidate_version=record.candidate_version,
            model_version=record.model_version,
            stream_exhausted=record.stream_exhausted,
            duration_s=record.duration_s,
        )
        self.obs.observe("online.round_seconds", record.duration_s)
        self.obs.increment("online_rounds")
        if record.decision == "promote":
            self.obs.increment("online_promotions")
            self.obs.event(
                "online_promote",
                round=record.round,
                version=record.candidate_version,
                model_version=record.model_version,
            )
        else:
            self.obs.increment("online_refusals")
            self.obs.event(
                "online_refuse",
                round=record.round,
                reason=record.reason,
                candidate_version=record.candidate_version,
            )

    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one ingest→train→gate→swap round."""
        round_index = self._rounds_run
        self._rounds_run += 1
        started = time.monotonic()
        rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        record = RoundRecord(round=round_index, model_version=self.engine.model_version)

        batch = self.ingestor.take(self.config.events_per_round)
        self.buffer.extend(batch.train)
        self.holdout.extend(batch.holdout)
        record.events = batch.events
        record.new_sequences = len(batch.train)
        record.holdout_sequences = len(batch.holdout)
        record.skipped_payloads = batch.skipped
        record.stream_exhausted = batch.exhausted
        record.buffer_depth = self.buffer.depth
        record.holdout_depth = self.holdout.depth
        if self.obs is not None:
            self.obs.event(
                "online_ingest",
                round=round_index,
                events=batch.events,
                new_train_sequences=len(batch.train),
                new_holdout_sequences=len(batch.holdout),
                skipped_payloads=batch.skipped,
                buffer_depth=self.buffer.depth,
                holdout_depth=self.holdout.depth,
                stream_exhausted=batch.exhausted,
            )
            self.obs.registry.gauge("replay_buffer_depth").set(self.buffer.depth)

        shadow_dataset = self.holdout.as_dataset(
            self.dataset, name=f"{self.dataset.name}-shadow", split=True
        )
        record.shadow_users = int(
            len(shadow_dataset.evaluation_users("test"))
        )

        refusal = self.gate.precheck(record.new_sequences, record.shadow_users)
        decision: GateDecision
        if refusal is not None:
            decision = refusal
        else:
            train_dataset = self.buffer.as_dataset(self.dataset, split=False)
            trained: FineTuneRoundResult = self.finetuner.run_round(
                train_dataset, round_index, rng
            )
            record.train_losses = trained.losses
            if trained.skipped:
                decision = GateDecision(
                    promote=False,
                    reason=REASON_NO_TRAINABLE_DATA,
                    detail=trained.reason,
                )
            else:
                candidate = self.store.publish(
                    self.trainer_model.state_dict(), round_index=round_index
                )
                record.candidate_version = candidate.version
                report = shadow_evaluate(
                    self.engine.model,
                    self.trainer_model,
                    shadow_dataset,
                    self.dataset,
                    ks=self.config.ks,
                    k=self.config.shadow_k,
                    max_requests=self.config.shadow_requests,
                    obs=self.obs,
                    round_index=round_index,
                )
                record.shadow = report.to_dict()
                decision = self.gate.decide(report)
                if decision.promote:
                    try:
                        self._swap(self.store.path(candidate.version))
                    except (CheckpointError, ModelSwapError) as error:
                        decision = GateDecision(
                            promote=False,
                            reason=REASON_SWAP_FAILED,
                            detail=str(error),
                        )
                self.store.mark(
                    candidate.version,
                    "promoted" if decision.promote else "refused",
                    reason=None if decision.promote else decision.reason,
                    metrics=report.deltas,
                )

        if not decision.promote:
            # The next round's candidate must grow from promoted
            # weights, not from a refused experiment.
            self._rollback_trainer()
            self.finetuner.discard_round(round_index)

        record.decision = "promote" if decision.promote else "refuse"
        record.reason = decision.reason
        record.detail = decision.detail
        record.model_version = self.engine.model_version
        record.duration_s = float(time.monotonic() - started)
        self._emit_round(record)
        return record

    def run(self, rounds: int | None = None) -> OnlineLoopResult:
        """Run ``rounds`` rounds (default: the configured count)."""
        result = OnlineLoopResult(store_directory=self.store.directory)
        total = self.config.rounds if rounds is None else rounds
        for __ in range(total):
            record = self.run_round()
            result.rounds.append(record)
            if record.decision == "promote":
                result.promotions += 1
            else:
                result.refusals += 1
        result.final_model_version = self.engine.model_version
        return result
