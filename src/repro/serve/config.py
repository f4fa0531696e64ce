"""One typed config for every serving entry point.

``serve``, ``chaos``, ``recommend`` and the test-suite all used to
re-assemble the same pile of knobs (checkpoint, model/dataset/scale,
batch/cache sizes, resilience, and now retrieval-index
selection) from loose ``argparse`` attributes.  :class:`ServeConfig`
is the single source of truth:

* ``ServeConfig.from_args(args)`` lifts an argparse namespace (any of
  the serving subcommands) into a validated config;
* ``build_engine()`` turns it into a ready
  :class:`~repro.serve.engine.RecommendationEngine`, including the
  retrieval index (``index``/``index_path``/``nprobe``/``rerank``);
* ``to_json()`` / ``from_json()`` round-trip it for logs, ``/health``
  payloads and reproducible test fixtures.

See ``docs/SERVING.md`` (engine) and ``docs/RETRIEVAL.md`` (index
selection) for what the knobs do.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

from repro.retrieval import INDEX_KINDS, ItemIndex, make_index

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Validated knobs for building a serving engine.

    Parameters mirror the ``repro serve`` CLI one to one; every
    serving subcommand (``serve``, ``chaos``, ``recommend``,
    ``index``) round-trips through this class so the knobs cannot
    drift apart.
    """

    # --- checkpoint + model/dataset identity ---------------------------
    checkpoint: str
    model: str = "CL4SRec"
    dataset: str = "beauty"
    preset: str = "smoke"
    dataset_scale: float | None = None
    dim: int | None = None
    max_length: int | None = None
    seed: int | None = None

    # --- engine shape --------------------------------------------------
    max_batch_size: int = 256
    cache_size: int = 4096
    split: str = "test"
    #: Scoring worker processes: 0 (default) serves in-process on the
    #: historical single-process path, bit-identically; N >= 1 shards
    #: the cache by user hash over N workers (docs/SCALING.md).
    workers: int = 0

    # --- resilience ----------------------------------------------------
    deadline_ms: float | None = None
    resilience: bool = True

    # --- retrieval index (docs/RETRIEVAL.md) ---------------------------
    #: Registered index kind: "exact" (default, bit-identical dense
    #: path), "ivf", "ivf_pq" or "ivf_flat".
    index: str = "exact"
    #: Load a prebuilt ``repro index`` artifact instead of building
    #: inline; its kind overrides :attr:`index` and the engine verifies
    #: it against the live model's matrix.
    index_path: str | None = None
    #: IVF cells probed per query (exactness/latency knob).
    nprobe: int | None = None
    #: Exact-rescore shortlist size for quantized indexes.
    rerank: int | None = None
    #: IVF cell count; default ``sqrt(num_items)``.
    nlist: int | None = None
    #: Product-quantization subspace count (``ivf_pq`` only).
    pq_m: int | None = None

    def __post_init__(self) -> None:
        if self.index not in INDEX_KINDS:
            raise ValueError(
                f"unknown index kind {self.index!r}; "
                f"registered: {sorted(INDEX_KINDS)}"
            )
        for name in ("max_batch_size", "cache_size"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("nprobe", "rerank", "nlist", "pq_m"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.workers < 0:
            raise ValueError(
                f"workers must be non-negative, got {self.workers}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_args(cls, args) -> "ServeConfig":
        """Lift an argparse namespace from any serving subcommand.

        Missing attributes fall back to the field defaults, so one
        constructor serves every subcommand's (slightly different)
        flag surface.
        """
        kwargs = {}
        for field in fields(cls):
            value = getattr(args, field.name, None)
            if value is not None:
                kwargs[field.name] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ServeConfig":
        payload = json.loads(text)
        known = {field.name for field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ServeConfig fields: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def scale(self):
        """The :class:`~repro.experiments.config.ExperimentScale` in use."""
        from repro.experiments.config import PRESETS

        try:
            scale = PRESETS[self.preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}"
            ) from None
        overrides = {
            name: getattr(self, name)
            for name in ("dataset_scale", "dim", "max_length", "seed")
            if getattr(self, name) is not None
        }
        return scale.with_overrides(**overrides) if overrides else scale

    def index_params(self) -> dict:
        """Constructor kwargs for :func:`repro.retrieval.make_index`."""
        if self.index == "exact":
            return {}
        params = {
            name: getattr(self, name)
            for name in ("nprobe", "rerank", "nlist", "pq_m")
            if getattr(self, name) is not None
        }
        return params

    def build_index(self) -> ItemIndex:
        """The (possibly prebuilt) index the engine should serve with.

        With :attr:`index_path` the artifact is loaded (its stored kind
        wins over :attr:`index`) and the runtime exactness knobs
        (``nprobe`` / ``rerank``) are applied on top — routing
        structure is baked at build time, probing depth is not.
        Otherwise an unbuilt index of kind :attr:`index` is returned
        and the engine fits it to the live model's matrix.
        """
        if self.index_path is not None:
            from repro.retrieval import load_index

            index = load_index(self.index_path)
            if hasattr(index, "with_params"):
                index.with_params(nprobe=self.nprobe, rerank=self.rerank)
            return index
        return make_index(self.index, **self.index_params())

    def build_engine(self, **overrides):
        """Dataset + model + checkpoint + index → a ready engine.

        ``overrides`` are forwarded to
        :meth:`RecommendationEngine.from_checkpoint` and win over the
        config (the chaos harness injects its fault injector and a
        fast-recovery resilience policy this way).
        """
        from repro.data.registry import load_dataset
        from repro.models.registry import build_model
        from repro.serve.engine import RecommendationEngine
        from repro.serve.resilience import ResilienceConfig

        scale = self.scale()
        dataset = load_dataset(
            self.dataset, scale=scale.dataset_scale, seed=scale.seed
        )
        model = build_model(self.model, dataset, scale)
        engine_kwargs = dict(
            max_batch_size=self.max_batch_size,
            cache_size=self.cache_size,
            split=self.split,
            index=self.build_index(),
        )
        if "resilience" not in overrides:
            engine_kwargs["resilience"] = (
                ResilienceConfig(default_deadline_ms=self.deadline_ms)
                if self.resilience
                else None
            )
        engine_kwargs.update(overrides)
        engine = RecommendationEngine.from_checkpoint(
            os.fspath(self.checkpoint), model, dataset, **engine_kwargs
        )
        if self.workers > 0:
            from repro.serve.workers import ShardedEngine

            return ShardedEngine(engine, workers=self.workers)
        return engine
