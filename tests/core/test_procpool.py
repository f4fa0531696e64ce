"""The one process-pool transport (repro.core.procpool), on fake workers.

Every way of waiting on a worker has a bound and a name: a silent
worker, a dead one, one that raised, one that never started — and a
shutdown that returns on time however wedged a child is.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.procpool import (
    _BLAS_THREAD_SETTERS,
    ProcessPool,
    WorkerFailedError,
    _loaded_openblas,
)


def blas_pools():
    """``(set_num_threads, get_num_threads)`` of each OpenBLAS mapped here."""
    pools = []
    for library in _loaded_openblas():
        for symbol in _BLAS_THREAD_SETTERS:
            if hasattr(library, symbol):
                getter = getattr(library, symbol.replace("set_", "get_"))
                pools.append((getattr(library, symbol), getter))
                break
    return pools


class FakeWorker:
    """Echoes, sleeps, raises or dies on command; no model anywhere."""

    def __init__(self, spec: dict) -> None:
        if spec.get("fail"):
            raise ValueError("bad spec")
        self.ready = {"pid": os.getpid(), "spec": spec}

    def handle(self, message):
        command, argument = message
        if command == "echo":
            return argument
        if command == "sleep":
            time.sleep(argument)
            return "woke"
        if command == "raise":
            raise KeyError(argument)
        if command == "exit":
            os._exit(argument)
        if command == "blas_threads":
            return [get() for __, get in blas_pools()]
        raise ValueError(f"unknown command {command!r}")

    def close(self) -> None:
        pass


def named_failure(worker, what):
    return WorkerFailedError(worker, f"fake worker {worker} {what}", step=7)


def make_pool(specs=({}, {}), failure=named_failure):
    return ProcessPool(
        FakeWorker, list(specs), name="fake-worker", failure=failure,
        timeout_s=10.0,
    )


def fake_children():
    return [
        child for child in multiprocessing.active_children()
        if child.name.startswith("fake-worker")
    ]


def test_one_command_one_reply_in_worker_order():
    with make_pool(specs=({"shard": 0}, {"shard": 1})) as pool:
        assert [ready["spec"] for ready in pool.ready] == [{"shard": 0}, {"shard": 1}]
        assert [ready["pid"] for ready in pool.ready] == [p.pid for p in pool.processes]
        for worker in (1, 0):
            pool.send(worker, ("echo", worker * 10))
        assert [pool.recv(worker) for worker in (0, 1)] == [0, 10]
    assert fake_children() == []


def test_silent_worker_raises_inside_the_bound_and_close_terminates_it():
    pool = make_pool()
    try:
        pool.timeout_s = 0.3  # tightened after start-up, which a busy box can slow
        pool.send(0, ("sleep", 60))
        started = time.monotonic()
        with pytest.raises(WorkerFailedError, match="worker 0 did not reply within 0.3s") as excinfo:
            pool.recv(0)
        assert time.monotonic() - started < 2.0
        assert (excinfo.value.worker, excinfo.value.step) == (0, 7)
        assert pool.processes[0].is_alive()  # silent, not dead
    finally:
        pool.close(timeout=0.3)
    assert not any(process.is_alive() for process in pool.processes)


def test_killed_worker_raises_with_its_exit_code():
    with make_pool() as pool:
        pool.send(1, ("exit", 3))  # dies mid-command, no goodbye
        with pytest.raises(WorkerFailedError, match=r"worker 1 died \(exit code 3\)"):
            pool.recv(1)
        os.kill(pool.processes[0].pid, signal.SIGKILL)  # dies between commands
        pool.processes[0].join(5.0)
        with pytest.raises(WorkerFailedError, match=r"worker 0 died \(exit code -9\)") as excinfo:
            pool.send(0, ("echo", 1))
            pool.recv(0)
        assert excinfo.value.worker == 0


def test_worker_side_exception_arrives_with_its_cause():
    with make_pool() as pool:
        pool.send(0, ("raise", "boom"))
        with pytest.raises(WorkerFailedError, match="worker 0 failed: 'boom'") as excinfo:
            pool.recv(0)
        assert isinstance(excinfo.value.__cause__, KeyError)
        # The worker answered (with its error) and is still in step.
        pool.send(0, ("echo", "still here"))
        assert pool.recv(0) == "still here"


def test_startup_failure_surfaces_from_the_constructor_with_no_live_child():
    with pytest.raises(WorkerFailedError, match="worker 1 failed: bad spec") as excinfo:
        make_pool(specs=({}, {"fail": True}, {}))
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert fake_children() == []


def test_close_is_idempotent_and_bounded_with_a_wedged_child():
    pool = make_pool()
    pool.send(1, ("sleep", 60))  # never answers the shutdown request
    started = time.monotonic()
    pool.close(timeout=0.3)
    assert time.monotonic() - started < 0.3 + 1.0 + 1.0  # timeout + terminate grace + slack
    assert not any(process.is_alive() for process in pool.processes)
    pool.close()  # idempotent


def test_forked_worker_runs_one_blas_thread():
    """A forked child inherits the parent's BLAS pool; the worker pins it
    to one thread before building anything, and the parent keeps its own."""
    pools = blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS with a known set_num_threads symbol is loaded")
    widths = [get() for __, get in pools]
    for set_threads, __ in pools:
        set_threads(2)  # a parent pool wider than one, whatever the box
    try:
        wide = [get() for __, get in pools]
        with make_pool(specs=({},)) as pool:
            pool.send(0, ("blas_threads", None))
            assert pool.recv(0) == [1] * len(pools)
        assert [get() for __, get in pools] == wide
    finally:
        for (set_threads, __), width in zip(pools, widths):
            set_threads(width)
