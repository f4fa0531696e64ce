"""Crash-safe archives: atomicity, checksums, rotation, recovery."""

import hashlib
import os

import numpy as np
import pytest

from repro.nn.serialization import (
    CheckpointError,
    atomic_write,
    read_archive,
    write_archive,
)
from repro.runtime import CheckpointManager, FaultInjector


def payload(value: float) -> dict:
    return {"weights": np.full((4, 3), value), "step": np.asarray(value)}


class TestAtomicWrite:
    def test_success_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, payload(1.0))
        names = sorted(os.listdir(tmp_path))
        assert names == ["ckpt.npz", "ckpt.npz.sha256"]

    def test_failed_write_preserves_previous_content(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"original")

        def exploding_writer(handle):
            handle.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            atomic_write(path, exploding_writer)
        assert path.read_bytes() == b"original"
        assert sorted(os.listdir(tmp_path)) == ["data.bin"]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, payload(2.5))
        loaded = read_archive(path)
        np.testing.assert_array_equal(loaded["weights"], np.full((4, 3), 2.5))


class TestChecksums:
    def test_sidecar_matches_file(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, payload(1.0))
        sidecar = (tmp_path / "ckpt.npz.sha256").read_text().strip()
        assert sidecar == hashlib.sha256(path.read_bytes()).hexdigest()
        read_archive(path)  # no raise

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, payload(1.0))
        FaultInjector.corrupt_file(path, flip_byte_at=100)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            read_archive(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, payload(1.0))
        FaultInjector.corrupt_file(path)  # truncate to half
        with pytest.raises(CheckpointError, match=str(path)):
            read_archive(path)

    def test_truncated_archive_without_sidecar_still_fails_cleanly(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, payload(1.0))
        os.unlink(f"{path}.sha256")
        FaultInjector.corrupt_file(path)
        with pytest.raises(CheckpointError, match="unreadable"):
            read_archive(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            read_archive(tmp_path / "nope.npz")


class TestCheckpointManager:
    def test_rotation_keeps_newest_k(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(5):
            manager.save(step, payload(float(step)))
        assert manager.steps() == [3, 4]
        # Sidecars rotate with their archives.
        assert sorted(os.listdir(tmp_path)) == [
            "ckpt-00000003.npz",
            "ckpt-00000003.npz.sha256",
            "ckpt-00000004.npz",
            "ckpt-00000004.npz.sha256",
        ]

    def test_load_latest_valid_prefers_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        for step in (1, 2, 3):
            manager.save(step, payload(float(step)))
        step, arrays = manager.load_latest_valid()
        assert step == 3
        assert float(arrays["step"]) == 3.0

    def test_corrupt_newest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        for step in (1, 2, 3):
            manager.save(step, payload(float(step)))
        FaultInjector.corrupt_file(manager.path_for(3), flip_byte_at=64)
        step, arrays = manager.load_latest_valid()
        assert step == 2
        assert float(arrays["step"]) == 2.0
        assert len(manager.skipped) == 1
        assert "ckpt-00000003" in manager.skipped[0][0]

    def test_all_corrupt_returns_none(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(1, payload(1.0))
        FaultInjector.corrupt_file(manager.path_for(1))
        assert manager.load_latest_valid() is None
        assert len(manager.skipped) == 1

    def test_empty_directory(self, tmp_path):
        manager = CheckpointManager(tmp_path / "fresh")
        assert manager.load_latest_valid() is None
        assert manager.latest_step() is None

    def test_keep_validates(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


@pytest.mark.fault_injection
class TestInjectedIOFaults:
    def test_failed_write_preserves_previous_checkpoints(self, tmp_path):
        faults = FaultInjector().fail_write(at=2)
        manager = CheckpointManager(tmp_path, keep=3, faults=faults)
        manager.save(1, payload(1.0))
        with pytest.raises(OSError, match="injected IO error"):
            manager.save(2, payload(2.0))
        # The first checkpoint is untouched and still valid.
        step, arrays = manager.load_latest_valid()
        assert step == 1
        assert float(arrays["step"]) == 1.0

    def test_injected_read_error_skips_to_older(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(1, payload(1.0))
        manager.save(2, payload(2.0))
        manager.faults = FaultInjector().fail_read(at=1)
        step, __ = manager.load_latest_valid()
        assert step == 1
        assert manager.skipped and "injected IO error" in manager.skipped[0][1]
