"""BENCHMARK.json stays inside the contract and matches what runs report."""

import json
import re

import pytest

from benchmarks.perf import cli, compare
from benchmarks.perf.spec import SPEC_PATH, load_spec, result_metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def raw():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_file_has_exactly_the_contract_keys(raw):
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert raw["paths"] == ["benchmarks/perf"]
    assert 1 <= raw["run_seconds"] <= 60 and isinstance(raw["run_seconds"], int)
    assert SPEC_PATH.stat().st_size <= 64 * 1024


def test_names_units_and_bounds_are_within_limits(raw):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in raw[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(raw["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in raw["workloads"])
    assert 1 <= len(raw["end_to_end"]) <= 16 and 1 <= len(raw["per_layer"]) <= 128
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in raw["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])


def test_every_workload_has_a_module():
    assert set(load_spec().workloads) == set(cli.WORKLOAD_MODULES)


def test_result_metrics_rejects_missing_and_undeclared_names():
    spec = load_spec()
    values = {metric.name: 1.5 for metric in spec.end_to_end}
    built = result_metrics(spec, False, values)
    assert built["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError, match="missing"):
        result_metrics(spec, False, {k: v for k, v in values.items() if k != "setup_s"})
    with pytest.raises(ValueError, match="undeclared"):
        result_metrics(spec, False, {**values, "made_up": 1.0})


def test_compare_rows_give_ratio_base_and_verdict_per_pair():
    spec = load_spec()
    base = {("serve_hot", "op_ms"): [44.0, 44.2, 43.9],
            ("serve_hot", "throughput_per_s"): [45.0, 45.2, 44.8]}
    new = {("serve_hot", "op_ms"): [1.0, 1.1, 0.9],
           ("serve_hot", "throughput_per_s"): [30.0, 30.5, 29.5]}
    rows = {row["metric"]: row for row in compare.compare_rows(spec, base, new)}
    assert set(rows) == {"op_ms", "throughput_per_s"}
    assert rows["op_ms"]["base"] == 44.0 and rows["op_ms"]["new"] == 1.0
    assert rows["op_ms"]["ratio"] == pytest.approx(1 / 44)
    assert rows["op_ms"]["verdict"] == "ok"
    assert rows["throughput_per_s"]["verdict"] == "worse"    # higher is better, it fell


def test_quick_runs_may_not_be_written_out(capsys):
    assert cli.main(["run", "--quick", "--out", "anything.json"]) == 2
    assert "refusing" in capsys.readouterr().err
