"""Request / response types for the serving engine, plus JSONL I/O.

A request addresses a user either by **dataset user id** (the engine
looks up the interaction history and can exclude seen items) or by a
**raw item-id sequence** (a live session the dataset has never seen).
The JSONL wire format mirrors the dataclass fields::

    {"user": 42, "k": 10}
    {"sequence": [3, 17, 5], "k": 5}
    {"user": 7, "k": 20, "exclude_seen": false}
    {"user": 42, "k": 10, "deadline_ms": 50}

``deadline_ms`` is the request's latency budget: past it the engine
degrades to the fallback chain (or answers 504 if nothing useful can
be served) instead of queueing forever — see ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np


class RequestError(ValueError):
    """A malformed recommendation request (bad JSON, missing fields...)."""


def _integral(value, what: str) -> int:
    """``value`` as an ``int``; anything non-integral (or a bool) is malformed."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer, np.floating))
        or value % 1 != 0  # also true for nan and inf
    ):
        raise RequestError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RecRequest:
    """One top-k recommendation request.

    Exactly one of ``user`` / ``sequence`` must be provided.  With
    ``exclude_seen`` (default) the history is removed from the
    candidates: the dataset's seen-item set for user requests, the
    sequence's own items for raw-sequence requests.
    """

    user: int | None = None
    sequence: tuple[int, ...] | None = None
    k: int = 10
    exclude_seen: bool = True
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if (self.user is None) == (self.sequence is None):
            raise RequestError(
                "exactly one of 'user' or 'sequence' must be provided"
            )
        if self.k < 1:
            raise RequestError(f"k must be positive, got {self.k}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise RequestError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.user is not None:
            object.__setattr__(self, "user", _integral(self.user, "user"))
        else:
            object.__setattr__(
                self,
                "sequence",
                tuple(_integral(i, "sequence item") for i in self.sequence),
            )
            if len(self.sequence) == 0:
                raise RequestError("sequence must not be empty")

    @classmethod
    def from_dict(cls, payload: dict) -> "RecRequest":
        """Build a request from a decoded JSON object."""
        if not isinstance(payload, dict):
            raise RequestError(f"request must be a JSON object, got {payload!r}")
        unknown = set(payload) - {
            "user", "sequence", "k", "exclude_seen", "deadline_ms"
        }
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        deadline_ms = payload.get("deadline_ms")
        try:
            return cls(
                user=payload.get("user"),
                sequence=(
                    tuple(payload["sequence"]) if "sequence" in payload else None
                ),
                k=int(payload.get("k", 10)),
                exclude_seen=bool(payload.get("exclude_seen", True)),
                deadline_ms=(
                    float(deadline_ms) if deadline_ms is not None else None
                ),
            )
        except (TypeError, ValueError) as error:
            if isinstance(error, RequestError):
                raise
            raise RequestError(f"malformed request field: {error}") from error


@dataclass
class Recommendation:
    """Top-k response for one request.

    ``degraded``/``fallback`` mark answers served from the resilience
    fallback chain (``"cache"`` or ``"popularity"`` tier); ``error``
    carries a machine-readable reason code (``"deadline_exceeded"``,
    ``"bad_request"``) when the request could not be served at all —
    such results have empty ``items``/``scores`` and ``detail`` holds
    the human-readable explanation.  ``model_version`` is the engine's
    weight generation that produced the answer (bumped by hot reloads).
    """

    items: np.ndarray
    scores: np.ndarray
    request: RecRequest = field(repr=False)
    cached: bool = False  # user representation served from cache
    degraded: bool = False
    fallback: str | None = None
    error: str | None = None
    detail: str | None = None
    model_version: int | None = None

    def to_dict(self) -> dict:
        """JSON-friendly payload (deterministic for identical requests)."""
        payload: dict = {}
        if self.request.user is not None:
            payload["user"] = int(self.request.user)
        else:
            payload["sequence"] = list(self.request.sequence)
        if self.error is not None:
            payload["error"] = self.detail or self.error
            payload["reason"] = self.error
            if self.model_version is not None:
                payload["model_version"] = int(self.model_version)
            return payload
        payload["items"] = [int(i) for i in self.items]
        payload["scores"] = [round(float(s), 6) for s in self.scores]
        if self.degraded:
            payload["degraded"] = True
            if self.fallback is not None:
                payload["fallback"] = self.fallback
        if self.model_version is not None:
            payload["model_version"] = int(self.model_version)
        return payload


def read_requests_file(path: str | os.PathLike) -> list[RecRequest]:
    """Parse a JSONL request file; blank lines and ``#`` comments skipped."""
    requests: list[RecRequest] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise RequestError(
                    f"{os.fspath(path)}:{lineno}: invalid JSON: {error}"
                ) from error
            try:
                requests.append(RecRequest.from_dict(payload))
            except RequestError as error:
                raise RequestError(
                    f"{os.fspath(path)}:{lineno}: {error}"
                ) from error
    return requests
