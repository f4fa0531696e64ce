"""Run tracking: manifests and the registry that loads them."""

import json

import pytest

from repro.experiments.tracking import RunRecord, RunRegistry


class TestRunRecord:
    def test_json_round_trip(self):
        record = RunRecord(
            experiment="table2",
            params={"scale": 0.05},
            metrics={"HR@10": 0.41},
            duration_seconds=12.5,
            run_id="table2-0001",
        )
        loaded = RunRecord.from_json(record.to_json())
        assert loaded == record

    def test_unknown_fields_rejected(self):
        payload = json.dumps(
            {
                "experiment": "x",
                "params": {},
                "metrics": {},
                "duration_seconds": 1.0,
                "run_id": "x-1",
                "notes": "",
                "extra": 42,
            }
        )
        with pytest.raises(ValueError):
            RunRecord.from_json(payload)


class TestRunRegistry:
    def test_record_and_load(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.record("table2", {"scale": 0.05}, {"HR@10": 0.4}, 10.0)
        registry.record("figure4", {"op": "mask"}, {"HR@10": 0.3}, 5.0)
        assert len(registry.runs()) == 2
        assert len(registry.runs("table2")) == 1

    def test_run_ids_increment(self, tmp_path):
        registry = RunRegistry(tmp_path)
        a = registry.record("exp", {}, {"m": 1.0}, 1.0)
        b = registry.record("exp", {}, {"m": 2.0}, 1.0)
        assert a.run_id != b.run_id

    def test_counter_survives_reopen(self, tmp_path):
        RunRegistry(tmp_path).record("exp", {}, {"m": 1.0}, 1.0)
        reopened = RunRegistry(tmp_path)
        second = reopened.record("exp", {}, {"m": 2.0}, 1.0)
        assert second.run_id.endswith("0002")

    def test_best(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.record("exp", {"lr": 0.1}, {"HR@10": 0.3}, 1.0)
        best_in = registry.record("exp", {"lr": 0.01}, {"HR@10": 0.5}, 1.0)
        registry.record("exp", {"lr": 1.0}, {"HR@10": 0.1}, 1.0)
        assert registry.best("exp", "HR@10").run_id == best_in.run_id

    def test_best_missing_raises(self, tmp_path):
        registry = RunRegistry(tmp_path)
        with pytest.raises(LookupError):
            registry.best("ghost", "HR@10")

