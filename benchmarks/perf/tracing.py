"""In-memory spans recorded by the benchmark around calls into ``repro``.

The program itself is not instrumented here (spans inside the program
are a later issue): a span wraps one call into a layer's public
function, remembers which span caused it, and the per-layer numbers are
medians over spans of one name.  A layer's *self* time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Children may overlap each other (two threads) or stick out of the
    parent (a child that outlives it); both are clipped, never counted
    twice.
    """
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    """Records spans on one thread; a disabled tracer records nothing.

    ``enabled`` may be flipped between units, which is how the traced
    run measures its own overhead (odd units traced, even units not).
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        span = Span(name, self.clock(), parent=self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def discard(self, span: Span | None) -> None:
        """Forget ``span`` if it is the most recent one (and childless)."""
        if span is not None and self.spans and self.spans[-1] is span:
            self.spans.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [
            span.duration - covered(children.get(index, ()), span.start, span.end)
            for index, span in enumerate(self.spans)
            if span.name == name
        ]


class Spanned:
    """Stand-in for ``target`` that records a span around chosen methods.

    Assigned over a public attribute (``server.engine``, ``engine.model``,
    ``engine.index``) it makes the callee's span a true child of the
    caller's, so self times come from real nesting, not from subtracting
    medians of separate calls.  Everything else is forwarded untouched.
    """

    def __init__(self, target, tracer: Tracer, spans: dict[str, str]) -> None:
        self._target = target
        self._tracer = tracer
        self._spans = spans

    def __getattr__(self, name: str):
        attribute = getattr(self._target, name)
        span_name = self._spans.get(name)
        if span_name is None:
            return attribute

        def spanned(*args, **kwargs):
            with self._tracer.span(span_name):
                return attribute(*args, **kwargs)

        return spanned
