"""Command line: ``run`` (one workload or interleaved sets) and ``compare``."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

from benchmarks.perf import stats
from benchmarks.perf.spec import Spec, load_spec, result_metrics

#: ``--quick``: every phase at most this long; a smoke test, not a measurement.
QUICK_SECONDS = 4.0

#: The module whose ``run(ctx)`` executes each workload.
WORKLOAD_MODULES = {
    "train_paper": "train_paper",
    "serve_hot": "serving",
    "serve_cold": "serving",
    "online_swap": "online_swap",
}


def _parser(spec: Spec) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", choices=spec.workloads,
                     help="one workload (default: all, order rotated per set)")
    run.add_argument("--seed", type=int, default=7,
                     help="drives every generator: dataset, trace, arrivals")
    run.add_argument("--seconds", type=float, default=None,
                     help=f"measurement length of one run (default {spec.run_seconds})")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end metrics, tracing off; 1: per-layer metrics "
                          "(default: both; with --quick only 0)")
    run.add_argument("--quick", action="store_true",
                     help="smoke mode: small inputs, short phases, results stamped quick")
    run.add_argument("--repeat", type=int, default=1,
                     help="interleaved sets, set i on seed+i; reports spread against bounds")
    run.add_argument("--out", help="write every run and the per-metric summary as JSON")
    compare = commands.add_parser("compare", help="compare two --out files")
    compare.add_argument("base")
    compare.add_argument("new")
    return parser


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = _parser(spec).parse_args(argv)
    if args.command == "compare":
        from benchmarks.perf.compare import compare_files

        return compare_files(spec, args.base, args.new)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec.run_seconds)
    if args.quick and args.out:
        print("refusing --out with --quick: a quick run is a smoke test, not a baseline",
              file=sys.stderr)
        return 2
    if args.workload and args.trace is not None and args.repeat == 1 and not args.out:
        return run_one(spec, args)
    return run_sets(spec, args)


# ----------------------------------------------------------------------
# One run, in this process (what the driver calls)
# ----------------------------------------------------------------------
def run_one(spec: Spec, args) -> int:
    from benchmarks.perf.common import RunContext, scratch_dir
    from benchmarks.perf.machine import machine_shape

    workload = importlib.import_module(f"benchmarks.perf.{WORKLOAD_MODULES[args.workload]}")
    print(f"# benchmarks.perf workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} quick={str(args.quick).lower()}")
    print(f"# machine {json.dumps(machine_shape(args.seed), sort_keys=True)}")
    with scratch_dir() as workdir:
        outcome = workload.run(RunContext(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), quick=args.quick, workdir=workdir,
        ))
    outcome.check("scratch directory removed", not os.path.exists(workdir), workdir)
    outcome.check("no child process left", not _has_children())
    values = dict(outcome.metrics)
    if args.trace:
        # A layer this workload never enters did no work in it: 0, by name.
        values = {metric.name: 0.0 for metric in spec.per_layer} | values
    metrics = result_metrics(spec, bool(args.trace), values)

    for row in outcome.rows:
        note = f"  ({row.note})" if row.note else ""
        print(f"  {row.name:<34} {row.value:>14.6g} {row.unit:<8} n={row.samples}{note}")
    for check in outcome.checks:
        detail = f" — {check.detail}" if check.detail else ""
        print(f"  [{'ok' if check.ok else 'FAIL'}] {check.name}{detail}")
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  ops_attempted {outcome.attempted}  ops_failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


def _has_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


# ----------------------------------------------------------------------
# Sets of runs, one fresh process each (as the driver runs them)
# ----------------------------------------------------------------------
def _spawn(args, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, "-m", "benchmarks.perf", "run", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    machine = next(
        (json.loads(line[len("# machine "):]) for line in lines if line.startswith("# machine ")),
        {},
    )
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": done.returncode, "machine": machine, **result}


def run_sets(spec: Spec, args) -> int:
    workloads = [args.workload] if args.workload else list(spec.workloads)
    traces = [args.trace] if args.trace is not None else ([0] if args.quick else [0, 1])
    runs = []
    for repeat in range(args.repeat):
        shift = repeat % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            for trace in traces:
                if trace == 1 and repeat > 0 and args.trace is None:
                    continue  # the shorter traced run is taken once, in the first set
                runs.append(_spawn(args, workload, args.seed + repeat, trace))

    summary = summarize(spec, runs)
    print_summary(summary, args.repeat)
    failed = [run for run in runs if not run["correct"] or run["exit_code"] != 0]
    for run in failed:
        print(f"FAILED: {run['workload']} seed={run['seed']} trace={run['trace']} "
              f"exit={run['exit_code']}")
    if args.out:
        write_results(args.out, {
            "quick": args.quick,
            "seconds": args.seconds,
            "seeds": [args.seed + repeat for repeat in range(args.repeat)],
            "machine": runs[0]["machine"],
            # End-to-end only: the per-layer values are one traced run
            # each and sit in "runs".
            "summary": {
                workload: {name: {k: v for k, v in slot.items() if k != "values"}
                           for name, slot in metrics.items() if slot["bound"] is not None}
                for workload, metrics in summary.items()
            },
        }, runs)
    return 1 if failed else 0


def write_results(path: str, header: dict, runs: list[dict]) -> None:
    """The header indented, then one run per line (the file is committed
    as the baseline, so it should diff and read run by run)."""
    lines = [json.dumps({k: v for k, v in run.items() if k != "machine"}, sort_keys=True)
             for run in runs]
    head = json.dumps(header, indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head[:-2] + ',\n "runs": [\n  ' + ",\n  ".join(lines) + "\n ]\n}\n")


def summarize(spec: Spec, runs: list[dict]) -> dict:
    """Per (workload, metric): every value, the median and the spread."""
    declared = {m.name: m for m in spec.end_to_end + spec.per_layer}
    summary: dict = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            slot = summary.setdefault(run["workload"], {}).setdefault(name, {
                "unit": entry["unit"], "better": declared[name].better,
                "bound": declared[name].bound, "values": [],
            })
            slot["values"].append(entry["value"])
    for metrics in summary.values():
        for slot in metrics.values():
            slot["runs"] = len(slot["values"])
            slot["median"] = stats.median(slot["values"])
            slot["spread"] = stats.relative_spread(slot["values"])
    return summary


def print_summary(summary: dict, repeat: int) -> None:
    print(f"\n== summary over {repeat} set(s): end-to-end metrics ==")
    print(f"{'workload':<12} {'metric':<18} {'median':>12} {'unit':<6} {'runs':>4} "
          f"{'spread':>8} {'bound':>6}")
    for workload, metrics in summary.items():
        for name, slot in metrics.items():
            if slot["bound"] is None:
                continue
            flag = "  spread > bound" if slot["spread"] > slot["bound"] else ""
            print(f"{workload:<12} {name:<18} {slot['median']:>12.5g} {slot['unit']:<6} "
                  f"{slot['runs']:>4} {slot['spread']:>8.1%} {slot['bound']:>6.0%}{flag}")
