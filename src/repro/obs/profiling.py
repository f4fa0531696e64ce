"""Opt-in scoped profiling for the hot numerical paths in ``repro.nn``.

Off by default and built for a near-zero disabled cost: instrumented
call sites do::

    from repro.obs.profiling import profile_scope

    with profile_scope("nn.attention"):
        ...

When profiling is disabled (the default), :func:`profile_scope`
returns one shared, pre-allocated null context — the overhead is a
single function call plus an empty ``with`` per site, which the
``benchmarks/test_obs_overhead.py`` gate bounds at <3% of a tiny
training run.  When enabled, each scope's wall time lands in a
histogram (``profile/<name>``) and a call counter on the active
:class:`Profiler`'s registry.

Enable either programmatically (:func:`enable` / :func:`profiled`), by
the ``repro train --profile`` CLI flag, or by exporting
``REPRO_PROFILE=1`` before the process starts.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.registry import MetricsRegistry

#: Environment variable that turns profiling on at import time.
PROFILE_ENV_VAR = "REPRO_PROFILE"

_TRUTHY = {"1", "true", "yes", "on"}


class _NullScope:
    """A reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class Profiler:
    """Aggregates scoped wall times into a metrics registry.

    ``profile/<scope>`` histograms hold per-call seconds;
    ``profile_calls/<scope>`` counters hold call counts.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Record the body's wall time under ``profile/<name>``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.registry.observe(f"profile/{name}", time.perf_counter() - started)
            self.registry.increment(f"profile_calls/{name}")

    def summary(self) -> dict:
        """Per-scope totals: calls, total/mean milliseconds."""
        out: dict[str, dict[str, float]] = {}
        for name, hist in self.registry.histograms.items():
            if not name.startswith("profile/"):
                continue
            scope = name[len("profile/") :]
            out[scope] = {
                "calls": hist.count,
                "total_ms": hist.total_seconds * 1e3,
                "mean_ms": hist.mean_seconds * 1e3,
                "max_ms": hist.max_seconds * 1e3,
            }
        return out


_ACTIVE: Profiler | None = None


def active() -> Profiler | None:
    """The currently enabled profiler, or ``None`` (the default)."""
    return _ACTIVE


def enabled() -> bool:
    """Whether any profiler is currently active."""
    return _ACTIVE is not None


def enable() -> Profiler:
    """Install a fresh profiler as the active one."""
    global _ACTIVE
    _ACTIVE = Profiler()
    return _ACTIVE


def disable() -> None:
    """Turn profiling off; :func:`profile_scope` returns to no-ops."""
    global _ACTIVE
    _ACTIVE = None


def profile_scope(name: str):
    """The hot-path hook: a timing scope, or a shared no-op when off."""
    profiler = _ACTIVE
    if profiler is None:
        return _NULL_SCOPE
    return profiler.scope(name)


@contextmanager
def profiled() -> Iterator[Profiler]:
    """Enable a fresh profiler for a ``with`` block, restoring the prior state."""
    global _ACTIVE
    previous = _ACTIVE
    installed = enable()
    try:
        yield installed
    finally:
        _ACTIVE = previous


def _enable_from_env() -> None:
    if os.environ.get(PROFILE_ENV_VAR, "").strip().lower() in _TRUTHY:
        enable()


_enable_from_env()
