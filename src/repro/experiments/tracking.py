"""Persist experiment runs as JSON manifests.

A lightweight lab notebook: every tracked run records its experiment
id, parameters, metrics, and wall-clock duration to one JSON file in a
directory, and :class:`RunRegistry` loads them back for comparison —
enough to answer "what did I run last week and with which settings"
without a heavyweight tracking service.

Manifest writes are atomic (temp file + fsync + ``os.replace``), so a
crash mid-record never leaves a truncated JSON file that poisons later
:meth:`RunRegistry.runs` scans.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

from repro.nn.serialization import atomic_write_bytes


@dataclass
class RunRecord:
    """One completed experiment run."""

    experiment: str
    params: dict[str, Any]
    metrics: dict[str, float]
    duration_seconds: float
    run_id: str = ""
    #: Written empty; a manifest that carries a note still loads.
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "RunRecord":
        data = json.loads(payload)
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown run-record fields: {sorted(unknown)}")
        return cls(**data)


class RunRegistry:
    """Directory of JSON run manifests."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._counter = len(list(self._manifest_paths()))

    def _manifest_paths(self) -> Iterator[str]:
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".json"):
                yield os.path.join(self.directory, name)

    def record(
        self,
        experiment: str,
        params: dict[str, Any],
        metrics: dict[str, float],
        duration_seconds: float,
    ) -> RunRecord:
        """Persist one run and return its record (with assigned id)."""
        self._counter += 1
        run_id = f"{experiment}-{self._counter:04d}"
        record = RunRecord(
            experiment=experiment,
            params=dict(params),
            metrics=dict(metrics),
            duration_seconds=float(duration_seconds),
            run_id=run_id,
        )
        path = os.path.join(self.directory, f"{run_id}.json")
        atomic_write_bytes(path, (record.to_json() + "\n").encode("utf-8"))
        return record

    def runs(self, experiment: str | None = None) -> list[RunRecord]:
        """Load all (or one experiment's) runs, oldest first."""
        records = []
        for path in self._manifest_paths():
            with open(path) as handle:
                record = RunRecord.from_json(handle.read())
            if experiment is None or record.experiment == experiment:
                records.append(record)
        return records

    def best(self, experiment: str, metric: str) -> RunRecord:
        """The run with the highest ``metric`` for ``experiment``."""
        candidates = [
            r for r in self.runs(experiment) if metric in r.metrics
        ]
        if not candidates:
            raise LookupError(
                f"no runs of '{experiment}' carry metric '{metric}'"
            )
        return max(candidates, key=lambda r: r.metrics[metric])


class TrackedRun:
    """Context manager that times a run and records it on success.

    >>> registry = RunRegistry(tmpdir)                  # doctest: +SKIP
    >>> with TrackedRun(registry, "table2", {"scale": 0.05}) as run:
    ...     run.metrics = {"HR@10": 0.41}               # doctest: +SKIP
    """

    def __init__(
        self,
        registry: RunRegistry,
        experiment: str,
        params: dict[str, Any],
    ) -> None:
        self.registry = registry
        self.experiment = experiment
        self.params = params
        self.metrics: dict[str, float] = {}
        self.record: RunRecord | None = None
        self._started = 0.0

    def __enter__(self) -> "TrackedRun":
        self._started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return  # failed runs are not recorded
        if not self.metrics:
            raise ValueError(
                "TrackedRun exited without metrics; set run.metrics first"
            )
        self.record = self.registry.record(
            self.experiment,
            self.params,
            self.metrics,
            duration_seconds=time.monotonic() - self._started,
        )
