"""Self-time arithmetic on nested and overlapping child spans."""

import pytest

from benchmarks.perf.tracing import Span, Spanned, Tracer, covered


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_covered_clips_and_never_counts_overlap_twice():
    assert covered([(1, 3), (2, 5)], 0, 10) == 4            # overlap once
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4          # clipped to parent
    assert covered([(1, 2), (1, 2), (4, 6)], 0, 10) == 3    # duplicates
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    #   outer [0, 10]
    #     mid [1, 7]
    #       leaf [2, 4]
    #     mid [8, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 7, 8, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("leaf"):
                pass
        with tracer.span("mid"):
            pass
    assert tracer.durations("outer") == [10]
    assert tracer.self_times("outer") == [3]        # 10 - (6 + 1); leaf not re-counted
    assert tracer.self_times("mid") == [4, 1]       # 6 - 2, and a childless one
    assert tracer.self_times("leaf") == [2]


def test_self_time_with_overlapping_children_of_one_parent():
    tracer = Tracer()
    tracer.spans = [
        Span("parent", 0.0, 10.0),
        Span("child", 1.0, 6.0, parent=0),
        Span("child", 4.0, 8.0, parent=0),   # overlaps the first by 2
        Span("child", 9.0, 12.0, parent=0),  # outlives the parent by 2
    ]
    assert tracer.self_times("parent") == [pytest.approx(10.0 - 7.0 - 1.0)]


def test_disabled_tracer_records_nothing_and_discard_drops_the_last_span():
    tracer = Tracer(enabled=False)
    with tracer.span("quiet") as span:
        assert span is None
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("kept"):
        pass
    with tracer.span("dropped") as span:
        pass
    tracer.discard(span)
    assert [s.name for s in tracer.spans] == ["kept"]


def test_spanned_nests_the_callee_under_the_caller():
    class Index:
        size = 3

        def search(self, query):
            return query * 2

    tracer = Tracer()
    index = Spanned(Index(), tracer, {"search": "retrieval.search"})
    with tracer.span("engine"):
        assert index.search(21) == 42
    assert index.size == 3                      # everything else is forwarded
    child = next(s for s in tracer.spans if s.name == "retrieval.search")
    assert tracer.spans[child.parent].name == "engine"
