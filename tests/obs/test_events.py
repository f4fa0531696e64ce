"""EventSink / read_events / RunObserver — the obs.jsonl stream."""

import json
import math

import numpy as np
import pytest

from repro.obs.events import (
    EVENTS_FILENAME,
    SCHEMA_VERSION,
    EventSink,
    RunObserver,
    jsonable,
    read_events,
)


class TestJsonable:
    def test_numpy_scalars(self):
        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable(np.int32(7)) == 7
        assert jsonable(np.bool_(True)) is True

    def test_numpy_array_to_list(self):
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nested_containers(self):
        out = jsonable({"a": (np.int64(1), np.float32(2.0)), "b": [np.bool_(False)]})
        assert out == {"a": [1, 2.0], "b": [False]}

    def test_non_finite_floats_become_none(self):
        assert jsonable(float("nan")) is None
        assert jsonable(float("inf")) is None
        assert jsonable(np.float64("-inf")) is None


class TestEventSink:
    def test_run_start_carries_meta(self, tmp_path):
        with EventSink(str(tmp_path), meta={"seed": 0}) as sink:
            assert sink.path.endswith(EVENTS_FILENAME)
        events = read_events(str(tmp_path))
        assert events[0]["event"] == "run_start"
        assert events[0]["meta"] == {"seed": 0}

    def test_lines_are_strict_json_with_monotone_seq(self, tmp_path):
        with EventSink(str(tmp_path)) as sink:
            sink.emit("a", loss=1.0)
            sink.emit("b", loss=float("nan"))
        lines = (tmp_path / EVENTS_FILENAME).read_text().splitlines()
        records = [json.loads(line) for line in lines]  # strict JSON parses
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["v"] == SCHEMA_VERSION for r in records)
        assert records[2]["loss"] is None  # NaN never reaches the stream

    def test_emit_after_close_raises(self, tmp_path):
        sink = EventSink(str(tmp_path))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit("late")

    def test_append_mode_preserves_previous_segments(self, tmp_path):
        EventSink(str(tmp_path), meta={"segment": 1}).close()
        EventSink(str(tmp_path), meta={"segment": 2}).close()
        starts = [e for e in read_events(str(tmp_path)) if e["event"] == "run_start"]
        assert [s["meta"]["segment"] for s in starts] == [1, 2]


class TestReadEvents:
    def test_accepts_directory_or_file(self, tmp_path):
        EventSink(str(tmp_path)).close()
        by_dir = read_events(str(tmp_path))
        by_file = read_events(str(tmp_path / EVENTS_FILENAME))
        assert by_dir == by_file

    def test_torn_tail_is_skipped(self, tmp_path):
        sink = EventSink(str(tmp_path))
        sink.emit("ok")
        sink.close()
        with open(tmp_path / EVENTS_FILENAME, "a") as handle:
            handle.write('{"v": 1, "seq": 99, "event": "tru')  # crashed writer
        events = read_events(str(tmp_path))
        assert [e["event"] for e in events] == ["run_start", "ok"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        path.write_text('{"event": "x"}\n\n\n{"event": "y"}\n')
        assert [e["event"] for e in read_events(str(path))] == ["x", "y"]


class TestRunObserver:
    def test_close_emits_snapshot_and_run_end(self, tmp_path):
        obs = RunObserver.to_directory(str(tmp_path), meta={"mode": "joint"})
        obs.increment("batches", 2)
        obs.observe("epoch_seconds", 0.5)
        obs.event("custom", value=1)
        obs.close()
        events = read_events(str(tmp_path))
        names = [e["event"] for e in events]
        assert names == ["run_start", "custom", "metrics_snapshot", "run_end"]
        registry = events[2]["registry"]
        assert registry["counters"] == {"batches": 2}
        assert registry["histograms"]["epoch_seconds"]["count"] == 1

    def test_close_is_idempotent(self, tmp_path):
        obs = RunObserver.to_directory(str(tmp_path))
        obs.close()
        obs.close()  # second close must not raise or duplicate run_end
        names = [e["event"] for e in read_events(str(tmp_path))]
        assert names.count("run_end") == 1

    def test_timer_is_nan_free_in_snapshot(self, tmp_path):
        obs = RunObserver.to_directory(str(tmp_path))
        with obs.timer("t"):
            pass
        summary = obs.registry.snapshot()["histograms"]["t"]
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in summary.values()
        )
