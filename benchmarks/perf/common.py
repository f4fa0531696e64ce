"""Pieces every workload shares: run context, outcome, set-up timing."""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchmarks.perf import stats
from benchmarks.perf.tracing import Tracer

#: Every size and count below is tuned for this many seconds of
#: measurement (``run_seconds`` in BENCHMARK.json); ``--seconds`` scales
#: phase durations and unit counts linearly from it.
REFERENCE_SECONDS = 20.0

#: Set-ups per run; ``setup_s`` is their median.  A cheap set-up is
#: repeated further, up to the cap, while the extra ones fit the budget:
#: the median of a 15 ms set-up needs more than three samples to hold still.
SETUP_REPEATS = 3
SETUP_REPEATS_CAP = 15
SETUP_EXTRA_BUDGET_S = 0.5

clock = time.perf_counter


@dataclass
class RunContext:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    #: Scratch directory inside the checkout, removed when the run ends.
    workdir: str

    @property
    def scale(self) -> float:
        return self.seconds / REFERENCE_SECONDS

    def units(self, at_reference: int, floor: int = 2) -> int:
        """A unit count (epochs, rounds, requests) scaled with ``--seconds``."""
        return max(floor, round(at_reference * self.scale))


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Row:
    """One printed line: a named number, its unit and its sample count."""

    name: str
    value: float
    unit: str
    samples: int = 1
    note: str = ""


@dataclass
class Outcome:
    """What a workload hands back to the command line."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    rows: list[Row] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def row(self, name: str, value: float, unit: str, samples: int = 1, note: str = "") -> None:
        self.rows.append(Row(name, float(value), unit, samples, note))

    def timing_rows(self, name: str, seconds: list[float], unit_scale: float = 1e3,
                    unit: str = "ms") -> float:
        """Print a timing as median + highest supported percentile; returns
        the median in ``unit``."""
        summary = stats.summarize([s * unit_scale for s in seconds])
        self.row(f"{name}.p50", summary["p50"], unit, summary["n"])
        if summary["tail_p"] > 50.0:
            self.row(f"{name}.p{summary['tail_p']:g}", summary["tail"], unit, summary["n"])
        return summary["p50"]

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


@contextmanager
def scratch_dir(root: str = ".bench_tmp"):
    """A private directory inside the checkout, gone when the block ends."""
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(root)  # only succeeds once no concurrent run is left
        except OSError:
            pass


def timed_setups(build, teardown):
    """Set up several times; keep the last, tear the others down.

    Returns ``(last_built, seconds_per_setup)``.  Repeating inside one
    run is what makes the reported median steady enough to bound.
    """
    seconds: list[float] = []
    built = None
    while len(seconds) < SETUP_REPEATS or (
        len(seconds) < SETUP_REPEATS_CAP and sum(seconds) < SETUP_EXTRA_BUDGET_S
    ):
        if built is not None:
            teardown(built)
        started = clock()
        built = build()
        seconds.append(clock() - started)
    return built, seconds


def span_cost_s(samples: int = 20_000) -> float:
    """Wall cost of recording one (empty) span, measured here and now."""
    tracer = Tracer()
    started = clock()
    for __ in range(samples):
        with tracer.span("probe"):
            pass
    return (clock() - started) / samples


def overhead_share(tracer: Tracer, traced_seconds: float) -> float:
    """Share of the traced units' wall time spent recording their spans.

    Spans live in the benchmark, around calls into the program, so the
    only cost tracing adds is recording; it is measured (cost per span
    times spans recorded) rather than inferred from two noisy runs.
    """
    if traced_seconds <= 0:
        return 0.0
    return len(tracer.spans) * span_cost_s() / traced_seconds


def best_of(seconds) -> float:
    """The fastest repeat of one deterministic computation.

    Epochs, evaluation passes, rounds and swaps are the same work done
    again; on a shared box other tenants only ever *add* time to a
    repeat.  Over a 7-minute recording of 174 online rounds on the
    reference machine, the median of 8 consecutive rounds spread 16 %
    between groups and the fastest of 8 spread 9 %, so the end-to-end
    metrics take the fastest repeat (the ROADMAP's best-of protocol).
    Request latencies are a distribution by nature and keep their
    median; every timing is still *printed* as median + percentile + n.
    """
    return min(seconds)


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class BenchObserver:
    """A duck-typed ``obs`` whose ``event()`` reads the benchmark's clock.

    Passed to the training loops so epoch boundaries are stamped by the
    benchmark, not by the program's own timers.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, float, dict]] = []

    def event(self, name: str, **fields) -> None:
        self.events.append((name, clock(), fields))

    def observe(self, name: str, seconds: float) -> None:
        pass

    def increment(self, name: str, by: int = 1) -> None:
        pass

    def stamps(self, name: str) -> list[float]:
        return [at for event, at, __ in self.events if event == name]

    def field(self, name: str, key: str) -> list:
        return [fields[key] for event, __, fields in self.events if event == name]


def unit_durations(started: float, stamps: list[float]) -> list[float]:
    """Durations of consecutive units given the start and each unit's end."""
    edges = [started] + list(stamps)
    return [b - a for a, b in zip(edges, edges[1:])]
