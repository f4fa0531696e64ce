"""The one process-pool transport: N workers, one command → one reply.

Data-parallel training (:mod:`repro.train.parallel`) runs work in forked
workers and waits for it.  Everything about *waiting on another process*
lives here, once; the pool's owner keeps only its domain half (what the
commands mean, which shared-memory segments exist, how replies are
merged) and moves arrays through :mod:`repro.core.shm`.

* :class:`ProcessPool` starts one process per spec, each running
  ``target(spec)`` behind a pipe, and is the only place the repository
  blocks on a worker: :meth:`ProcessPool.recv` polls the pipe *and* the
  process, so a worker that died (exit code reported), went silent past
  ``timeout_s``, closed its pipe or raised while handling the command
  ends in one named error, :class:`WorkerFailedError` — never a hang.
* The owner words that error: ``failure(worker, what, raised)`` builds
  the exception to raise, so a message can name a training step without
  this module knowing what the work is.
* :meth:`ProcessPool.close` escalates — ask, join, terminate, close the
  pipes — inside one deadline.  Owners stop the pool *before* they
  unlink any shared segment, so a worker never maps a destroyed one.
* Each worker pins the OpenBLAS pools NumPy (and SciPy) loaded to one
  thread before it builds anything: a forked child inherits the
  parent's pool, sized to the machine, and ``OPENBLAS_NUM_THREADS`` set
  in the child is read only when the library loads, so N workers would
  otherwise run N machine-wide pools on the same cores.

Worker-side protocol: ``target(spec)`` builds the worker object inside
the new process; it must offer ``ready`` (the payload of the start-up
reply), ``handle(message) -> payload`` and ``close()``.  A ``target``
that raises reports the exception instead of ``ready``, which surfaces
from the :class:`ProcessPool` constructor with no child left running.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import time

__all__ = ["ClosesOnExit", "ProcessPool", "WorkerFailedError"]

_SHUTDOWN = "shutdown"


class WorkerFailedError(RuntimeError):
    """A pool worker died, hung, or errored — named, not silent.

    ``worker`` is the failed worker's id; ``step`` is the owner's step
    counter when the failure surfaced (the 1-based global training
    step; 0 outside a step loop, e.g. at start-up).
    """

    def __init__(self, worker: int, message: str, step: int = 0) -> None:
        super().__init__(message)
        self.worker = int(worker)
        self.step = int(step)


class ClosesOnExit:
    """``with`` support and a last-resort ``__del__`` over ``close()``."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(timeout=1.0)
        except Exception:
            pass


def _send_error(conn, error: BaseException) -> None:
    """Ship an exception to the owner, degrading to a plain message."""
    try:
        conn.send(("error", error))
    except Exception:
        try:
            conn.send(("error", RuntimeError(f"{type(error).__name__}: {error}")))
        except Exception:
            pass


#: ``set_num_threads`` of the OpenBLAS builds NumPy wheels ship, newest first.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list:
    """The OpenBLAS libraries mapped into this process (none off Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split(maxsplit=5)[-1].strip()
                for line in maps
                if "openblas" in line
            })
    except OSError:
        return []
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _pin_blas_to_one_thread() -> None:
    """One thread in every OpenBLAS pool here (NumPy's, and SciPy's if
    loaded); a library without a known setter is left as it is."""
    for library in _loaded_openblas():
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter(1)
                break


def _worker_loop(conn, target, spec) -> None:
    """Worker process entry point: build the worker, answer commands."""
    try:
        _pin_blas_to_one_thread()
        worker = target(spec)
        conn.send(("ok", worker.ready))
    except BaseException as error:  # surface start-up failures to the owner
        _send_error(conn, error)
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        try:
            if message[0] == _SHUTDOWN:
                conn.send(("ok", None))
                break
            conn.send(("ok", worker.handle(message)))
        # Whatever the command raised travels to the owner; the worker
        # stays in step (one command, one reply) and keeps working.
        except BaseException as error:
            _send_error(conn, error)
    worker.close()
    conn.close()


class ProcessPool(ClosesOnExit):
    """N worker processes behind pipes; every wait bounded and named.

    ``specs`` holds one picklable start-up argument per worker;
    processes are named ``{name}-{worker}``.  ``failure(worker, what,
    raised=None)`` returns the exception a failed :meth:`send` /
    :meth:`recv` raises: ``what`` says what happened (``"died (exit
    code 1)"``, ``"did not reply within 120s"``, …) and ``raised`` is
    the worker's own exception when the command raised over there — an
    owner may hand ``raised`` back to re-raise it as it is.
    """

    def __init__(
        self,
        target,
        specs,
        *,
        name: str,
        failure,
        timeout_s: float,
    ) -> None:
        self.timeout_s = float(timeout_s)
        self._failure = failure
        self._closed = False
        self._conns = []
        self.processes = []
        context = multiprocessing.get_context("fork")
        self.start_method = context.get_start_method()
        try:
            for worker, spec in enumerate(specs):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_loop,
                    args=(child_conn, target, spec),
                    name=f"{name}-{worker}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self.processes.append(process)
            #: Each worker's start-up reply (``worker.ready``).
            self.ready = [self.recv(worker) for worker in range(len(self.processes))]
        except BaseException:
            self.close()
            raise

    def _died(self, worker: int) -> BaseException:
        """The error for a worker whose process or pipe is gone."""
        process = self.processes[worker]
        process.join(1.0)  # reap it, so the exit code is known
        return self._failure(worker, f"died (exit code {process.exitcode})")

    def send(self, worker: int, message) -> None:
        """Send one command to ``worker``, surfacing its death."""
        try:
            self._conns[worker].send(message)
        except OSError as error:
            raise self._died(worker) from error

    def recv(self, worker: int):
        """``worker``'s reply to the last command, within ``timeout_s``."""
        conn, process = self._conns[worker], self.processes[worker]
        deadline = time.monotonic() + self.timeout_s
        while not conn.poll(0.05):
            if not process.is_alive():
                if conn.poll(0):  # drain a reply racing the exit
                    break
                raise self._died(worker)
            if time.monotonic() >= deadline:
                raise self._failure(
                    worker, f"did not reply within {self.timeout_s:g}s"
                )
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as error:
            raise self._died(worker) from error
        if status == "error":
            error = self._failure(worker, f"failed: {payload}", payload)
            if error is payload:
                raise payload
            raise error from payload
        return payload

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker: ask, join, terminate, close (idempotent).

        The asking and joining share one ``timeout``; workers still
        alive after it are terminated, so the call returns within about
        a second of the deadline however wedged a child is.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout

        def remaining() -> float:
            return max(0.0, deadline - time.monotonic())

        for conn in self._conns:
            try:
                conn.send((_SHUTDOWN,))
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(remaining()):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for process in self.processes:
            process.join(remaining())
        stragglers = [p for p in self.processes if p.is_alive()]
        for process in stragglers:
            process.terminate()
        for process in stragglers:
            process.join(1.0)
        for conn in self._conns:
            conn.close()
