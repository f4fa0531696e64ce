"""The percentile rule, the spread, and which way a bound cuts."""

import pytest

from benchmarks.perf import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (5, 50.0),      # five epochs: a median and nothing it cannot back up
        (39, 50.0),     # p75 would leave 9.75 beyond
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (600, 95.0),    # p99 would leave 6 beyond
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    summary = stats.summarize(range(1, 201))
    assert summary["n"] == 200
    assert summary["p50"] == pytest.approx(100.5)
    assert summary["tail_p"] == 95.0
    assert summary["tail"] == pytest.approx(190.05)


def test_relative_spread_is_iqr_over_median():
    # statistics.quantiles(n=4) on 1..9 gives 2.5 / 5 / 7.5.
    assert stats.relative_spread(range(1, 10)) == pytest.approx(1.0)
    assert stats.relative_spread([3.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 120.0, "lower") == pytest.approx(0.20)
    assert stats.worsening(100.0, 120.0, "higher") == pytest.approx(-0.20)
    assert stats.worsening(100.0, 80.0, "higher") == pytest.approx(0.20)
    with pytest.raises(ValueError):
        stats.worsening(1.0, 1.0, "sideways")


def test_bound_applies_to_a_falling_higher_is_better_metric():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [value * 0.85 for value in base]
    faster = [value * 1.15 for value in base]
    assert stats.verdict(base, slower, "higher", 0.10) == "worse"
    assert stats.verdict(base, faster, "higher", 0.10) == "ok"
    # The same numbers read as latencies cut the other way.
    assert stats.verdict(base, faster, "lower", 0.10) == "worse"
    assert stats.verdict(base, slower, "lower", 0.10) == "ok"


def test_noisy_metric_is_unresolved_unless_every_run_wins():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert stats.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.10) == "unresolved"
    assert stats.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10) == "ok"
