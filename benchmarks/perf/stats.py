"""Summary statistics and the regression rule (numpy-free on purpose).

Everything here works on plain lists of floats so ``compare`` and the
self-tests run without importing numpy or ``repro``.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0–100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def supported_percentile(count: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median (p50) when even p75 is not supported, so a
    five-epoch phase reports a median and nothing it cannot back up.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        # round(): 10000 * (100 - 99.9) / 100 is 9.99999..., not 10
        if round(count * (100.0 - p) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """``{n, p50, tail_p, tail}`` — a timing as the protocol reports it."""
    values = list(values)
    tail_p = supported_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p),
    }


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them — the
    rule the driver applies to ten runs of one (workload, metric).
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive = worse, negative = better, in the metric's own direction:
    a ``higher``-is-better metric worsens when it *falls*.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_runs, new_runs, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric).

    ``worse``: the new median is worse than the base median by more
    than ``bound``.  ``unresolved``: it is not, but either side's
    run-to-run spread is wider than the bound, so "no regression"
    cannot be told from noise — unless every new run beats every base
    run (choosing-metrics guide, section 6.5).
    """
    base_runs, new_runs = list(base_runs), list(new_runs)
    if worsening(median(base_runs), median(new_runs), better) > bound:
        return "worse"
    noisy = max(relative_spread(base_runs), relative_spread(new_runs)) > bound
    if noisy:
        if better == "lower":
            dominates = max(new_runs) < min(base_runs)
        else:
            dominates = min(new_runs) > max(base_runs)
        if not dominates:
            return "unresolved"
    return "ok"
