"""Structured JSON-lines event stream for a run (``obs.jsonl``).

Every run directory gets one append-only ``obs.jsonl``; each line is a
self-describing JSON object::

    {"v": 1, "seq": 12, "ts": 1754448000.123456, "event": "joint_epoch",
     "epoch": 3, "loss": 1.234, ...}

* ``v`` — schema version (:data:`SCHEMA_VERSION`).
* ``seq`` — per-sink monotone sequence number, so readers can detect
  truncation and order events even when timestamps collide.
* ``ts`` — UNIX timestamp (wall clock; the only non-deterministic
  field emitted by the instrumented loops — everything else is
  bit-reproducible under a fixed seed, which the determinism e2e test
  asserts).
* ``event`` — event name; remaining keys are event-specific payload.

Lines are flushed as written, so a crashed run keeps everything up to
its last completed event.  :class:`RunObserver` bundles a sink with a
:class:`~repro.obs.registry.MetricsRegistry` and is the single object
the training loops, the evaluator and the fault-tolerant runtime
thread their telemetry through.  Schema reference:
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import IO, Any

import numpy as np

from repro.obs.registry import MetricsRegistry

SCHEMA_VERSION = 1

#: Default event-stream filename inside a run directory.
EVENTS_FILENAME = "obs.jsonl"


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into plain JSON types.

    Non-finite floats map to ``None`` so the stream stays valid strict
    JSON (a diverged loss must not produce an unparseable line).
    """
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class EventSink:
    """Append-only JSON-lines writer with run metadata.

    Parameters
    ----------
    directory:
        Run directory; created if missing.  The stream is
        ``<directory>/obs.jsonl``.
    meta:
        Optional run metadata (dataset, mode, seed, argv, ...) emitted
        as the payload of an initial ``run_start`` event.
    """

    def __init__(self, directory: str, meta: dict | None = None) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, EVENTS_FILENAME)
        self._seq = 0
        self._file: IO[str] | None = open(self.path, "a", encoding="utf-8")
        self.emit("run_start", meta=dict(meta or {}))

    @property
    def closed(self) -> bool:
        return self._file is None

    def emit(self, event: str, **fields: Any) -> dict:
        """Write one event line (flushed immediately); returns the record."""
        if self._file is None:
            raise ValueError(f"event sink for {self.path} is closed")
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "ts": round(time.time(), 6),
            "event": str(event),
        }
        for key, value in fields.items():
            record[key] = jsonable(value)
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        self._seq += 1
        return record

    def close(self) -> None:
        """Close the stream; further :meth:`emit` calls raise."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: str) -> list[dict]:
    """Parse an ``obs.jsonl`` (or a run directory containing one).

    Blank lines are skipped; a torn final line (crashed writer) is
    ignored rather than failing the whole read.
    """
    if os.path.isdir(path):
        path = os.path.join(path, EVENTS_FILENAME)
    events: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail of a crashed run
    return events


class RunObserver:
    """One handle for everything a run records: events + metrics.

    The training loops, the evaluator and the runtime all accept an
    optional ``obs`` argument; passing the same :class:`RunObserver`
    everywhere yields one coherent ``obs.jsonl`` plus one aggregated
    :class:`~repro.obs.registry.MetricsRegistry`.
    """

    def __init__(self, sink: EventSink) -> None:
        self.sink = sink
        self.registry = MetricsRegistry()

    @classmethod
    def to_directory(cls, directory: str, meta: dict | None = None) -> "RunObserver":
        """An observer writing ``obs.jsonl`` under ``directory``."""
        return cls(EventSink(directory, meta=meta))

    def event(self, name: str, **fields: Any) -> None:
        """Emit one structured event."""
        self.sink.emit(name, **fields)

    def increment(self, name: str, by: int = 1) -> None:
        """Bump a registry counter."""
        self.registry.increment(name, by)

    def observe(self, name: str, seconds: float) -> None:
        """Record into a registry histogram."""
        self.registry.observe(name, seconds)

    def timer(self, name: str):
        """Time a ``with`` block into a registry histogram."""
        return self.registry.timer(name)

    def close(self) -> None:
        """Emit a final ``metrics_snapshot`` + ``run_end`` and close."""
        if not self.sink.closed:
            self.event("metrics_snapshot", registry=self.registry.snapshot())
            self.event("run_end")
            self.sink.close()

    def __enter__(self) -> "RunObserver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
