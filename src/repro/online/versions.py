"""Checksummed, versioned model artifacts for the online loop.

Every fine-tuning round publishes a candidate archive here; the
promotion gate then marks it ``promoted`` or ``refused`` (with the
reason), so the store doubles as an audit log of every decision the
loop ever made.  Archives go through the one artifact layer
(:mod:`repro.nn.serialization`: atomic ``.npz`` + SHA-256 sidecar +
format stamp) with ``model/<param>`` keys, which makes each version
directly consumable by :meth:`RecommendationEngine.swap_model` and
``POST /admin/reload`` without conversion.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.nn.serialization import (
    atomic_write_bytes,
    read_archive,
    remove_archive,
    section,
    write_archive,
)

__all__ = ["ModelVersionStore", "VersionRecord"]

MANIFEST_NAME = "versions.json"

#: Decisions a version can carry.  ``baseline`` is the pre-loop serving
#: state; ``pending`` means published but not yet gated.
DECISIONS = ("baseline", "pending", "promoted", "refused")


@dataclass
class VersionRecord:
    """One entry of the manifest."""

    version: int
    filename: str
    checksum: str
    round: int | None = None
    parent: int | None = None
    decision: str = "pending"
    reason: str | None = None
    metrics: dict = field(default_factory=dict)
    #: False once the archive file was pruned (the record survives).
    archived: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


class ModelVersionStore:
    """Versioned model archives + a JSON manifest of gate decisions.

    ``keep`` bounds how many archive *files* are retained; manifest
    records are never dropped, and the newest serving version (latest
    ``promoted``/``baseline``) is always kept on disk so a crashed loop
    can re-arm ``swap_model`` from the store alone.
    """

    def __init__(self, directory: str | os.PathLike, keep: int = 8) -> None:
        if keep < 1:
            raise ValueError(f"keep must be positive, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)
        self._records: list[VersionRecord] = []
        self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _load_manifest(self) -> None:
        if not os.path.exists(self.manifest_path):
            return
        with open(self.manifest_path) as handle:
            payload = json.load(handle)
        self._records = [VersionRecord(**entry) for entry in payload["versions"]]

    def _write_manifest(self) -> None:
        payload = {
            "format_version": 1,
            "versions": [record.to_dict() for record in self._records],
        }
        atomic_write_bytes(
            self.manifest_path,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[VersionRecord]:
        return list(self._records)

    def record(self, version: int) -> VersionRecord:
        for entry in self._records:
            if entry.version == version:
                return entry
        raise KeyError(f"no version {version} in {self.directory}")

    def path(self, version: int) -> str:
        return os.path.join(self.directory, self.record(version).filename)

    def latest(self) -> VersionRecord | None:
        """The most recently published version, regardless of decision."""
        return self._records[-1] if self._records else None

    def latest_serving(self) -> VersionRecord | None:
        """The newest version the gate let into (or found in) serving."""
        for entry in reversed(self._records):
            if entry.decision in ("promoted", "baseline"):
                return entry
        return None

    def load_state(self, version: int) -> dict[str, np.ndarray]:
        """The model state dict of ``version`` (checksum-verified)."""
        entry = self.record(version)
        if not entry.archived:
            raise FileNotFoundError(
                f"version {version} archive was pruned (keep={self.keep})"
            )
        return section(read_archive(self.path(version)), "model")

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def publish(
        self,
        state: dict[str, np.ndarray],
        round_index: int | None = None,
        decision: str = "pending",
        reason: str | None = None,
        metrics: dict | None = None,
    ) -> VersionRecord:
        """Write a new version archive and append its manifest record."""
        if decision not in DECISIONS:
            raise ValueError(f"unknown decision {decision!r}")
        version = self._records[-1].version + 1 if self._records else 1
        filename = f"v-{version:06d}.npz"
        path = os.path.join(self.directory, filename)
        arrays: dict[str, np.ndarray] = {"meta/version": np.asarray(version)}
        if round_index is not None:
            arrays["meta/round"] = np.asarray(round_index)
        for name, values in state.items():
            arrays[f"model/{name}"] = np.asarray(values)
        checksum = write_archive(path, arrays)
        parent = self.latest_serving()
        record = VersionRecord(
            version=version,
            filename=filename,
            checksum=checksum,
            round=round_index,
            parent=parent.version if parent is not None else None,
            decision=decision,
            reason=reason,
            metrics=dict(metrics or {}),
        )
        self._records.append(record)
        self._prune()
        self._write_manifest()
        return record

    def mark(
        self,
        version: int,
        decision: str,
        reason: str | None = None,
        metrics: dict | None = None,
    ) -> VersionRecord:
        """Record the gate's verdict for ``version``."""
        if decision not in DECISIONS:
            raise ValueError(f"unknown decision {decision!r}")
        entry = self.record(version)
        entry.decision = decision
        entry.reason = reason
        if metrics:
            entry.metrics.update(metrics)
        self._prune()
        self._write_manifest()
        return entry

    def _prune(self) -> None:
        """Drop archive files beyond ``keep``, sparing the serving one."""
        serving = self.latest_serving()
        keep_versions = {
            entry.version for entry in self._records[-self.keep:]
        }
        if serving is not None:
            keep_versions.add(serving.version)
        for entry in self._records:
            if not entry.archived or entry.version in keep_versions:
                continue
            remove_archive(os.path.join(self.directory, entry.filename))
            entry.archived = False
