"""``compare A.json B.json``: one row per (workload, end-to-end metric)."""

from __future__ import annotations

import json

from benchmarks.perf import stats
from benchmarks.perf.spec import Spec


def _values(path: str) -> tuple[dict, dict]:
    """``{(workload, metric): [values of the untraced runs]}`` and the file."""
    with open(path, encoding="utf-8") as handle:
        results = json.load(handle)
    values: dict[tuple[str, str], list[float]] = {}
    for run in results["runs"]:
        if run["trace"] == 0 and run["correct"]:
            for name, entry in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(entry["value"])
    return values, results


def compare_rows(spec: Spec, base: dict, new: dict) -> list[dict]:
    """The comparison as data (the self-tests read this)."""
    rows = []
    for workload in spec.workloads:
        for metric in spec.end_to_end:
            key = (workload, metric.name)
            if key not in base or key not in new:
                continue
            base_median, new_median = stats.median(base[key]), stats.median(new[key])
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "base": base_median,
                "new": new_median,
                "ratio": new_median / base_median if base_median else float("inf"),
                "bound": metric.bound,
                "spread": max(stats.relative_spread(base[key]),
                              stats.relative_spread(new[key])),
                "verdict": stats.verdict(base[key], new[key], metric.better, metric.bound),
            })
    return rows


def compare_files(spec: Spec, base_path: str, new_path: str) -> int:
    """Print the table; exit 1 when any row is ``worse``."""
    base, base_file = _values(base_path)
    new, new_file = _values(new_path)
    for label, path, results in (("A", base_path, base_file), ("B", new_path, new_file)):
        machine = results.get("machine", {})
        print(f"# {label} = {path}: commit {machine.get('git_commit', '?')[:12]}, "
              f"{machine.get('usable_cores', '?')} cores, seeds {results.get('seeds')}"
              + ("  [QUICK: not a measurement]" if results.get("quick") else ""))
    print(f"{'workload':<12} {'metric':<18} {'A median':>12} {'B median':>12} {'unit':<5} "
          f"{'B/A':>7} {'better':<7} {'bound':>6} {'spread':>7}  verdict")
    rows = compare_rows(spec, base, new)
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<18} {row['base']:>12.5g} "
              f"{row['new']:>12.5g} {row['unit']:<5} {row['ratio']:>6.3f}x {row['better']:<7} "
              f"{row['bound']:>6.0%} {row['spread']:>7.1%}  {row['verdict']}")
    print("B/A is B's median over A's (the base); 'unresolved' = spread wider than the bound "
          "and the two sides' runs overlap.")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
