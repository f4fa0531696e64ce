"""The benchmark's own HTTP load generator (stdlib only).

One process, at most ``connections`` threads, one keep-alive HTTP/1.1
connection each.  Plain sockets with default options and exactly one
``sendall`` per request: the generator can never add a Nagle stall of
its own, so whatever stall remains in a round trip is the server's.

* **open loop** — requests are due on a seeded exponential schedule at
  a fixed rate, whatever the server does.  Each is timed *from its due
  time*, so the wait a slow reply imposes on the requests behind it is
  counted.  A request that could not be started within ``cutoff_s`` of
  its due time is recorded as failed and skipped, which keeps the phase
  the same length on every commit.
* **closed loop** — every connection sends its next request as soon as
  the previous reply arrived, for a fixed wall time.
"""

from __future__ import annotations

import bisect
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field

#: A reply slower than this is a failed operation, not a latency sample.
SOCKET_TIMEOUT_S = 10.0


def arrival_schedule(seed: int, rate: float, duration_s: float) -> list[float]:
    """Due times (seconds from phase start) of a Poisson process.

    The same ``(seed, rate, duration_s)`` gives the same list, float for
    float; stdlib ``random`` keeps that true across numpy versions.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be positive")
    rng = random.Random(f"arrivals:{seed}:{rate!r}")
    due, now = [], rng.expovariate(rate)
    while now < duration_s:
        due.append(now)
        now += rng.expovariate(rate)
    return due


def encode_event(event: dict) -> tuple[str, bytes, int]:
    """A ``TrafficTrace`` event as ``(path, JSON body, sequences)``."""
    payloads = event["requests"]
    if event["kind"] == "batch":
        return "/recommend/batch", json.dumps({"requests": payloads}).encode(), len(payloads)
    return "/recommend", json.dumps(payloads[0]).encode(), 1


class HttpClient:
    """One keep-alive connection; ``request`` is one ``sendall`` + one read."""

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self._sock: socket.socket | None = None
        self._reader = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address, timeout=SOCKET_TIMEOUT_S)
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request, return ``(status, body)``; raises ``OSError``
        (after dropping the connection) when no complete reply arrives."""
        if self._sock is None:
            self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        try:
            self._sock.sendall(head + body)
            status_line = self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, __, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = self._reader.read(length)
            if len(payload) != length:
                raise ConnectionError("truncated response body")
            return status, payload
        except (OSError, ValueError, IndexError) as error:
            self.close()
            raise OSError(f"{method} {path}: {error}") from error

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise OSError(f"GET {path} answered {status}")
        return json.loads(body)


@dataclass
class PhaseResult:
    """What one load phase observed (all times in seconds)."""

    name: str
    duration_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Successful requests only; from due time (open) or send (closed).
    latencies: list[float] = field(default_factory=list)
    #: Open loop: dispatch slip of requests that found a connection idle
    #: — the generator's own lateness, not the server's backlog.
    late: list[float] = field(default_factory=list)
    #: Open loop: the queue of due-but-unsent requests seen by each
    #: dispatch, in dispatch order.
    backlogs: list[int] = field(default_factory=list)
    #: Sequences inside 200 replies (a batch counts each member).
    sequences_ok: int = 0
    #: ``(status, reason)`` of every non-200 reply.
    refusals: list[tuple[int, str | None]] = field(default_factory=list)
    transport_errors: list[str] = field(default_factory=list)
    cut_off: int = 0
    #: Parsed 200 bodies by request index (correctness checks read them).
    bodies: dict[int, dict] = field(default_factory=dict)
    #: ``model_version`` stream per connection, in reply order.
    versions: dict[int, list[int]] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return len(self.latencies)

    @property
    def backlog_max(self) -> int:
        return max(self.backlogs, default=0)

    def backlog_growing(self, slack: int) -> bool:
        """Whether the last quarter of dispatches saw a deeper queue than
        the first quarter by more than ``slack`` requests."""
        quarter = len(self.backlogs) // 4
        if quarter == 0:
            return False
        head = sorted(self.backlogs[:quarter])[quarter // 2]
        tail = sorted(self.backlogs[-quarter:])[quarter // 2]
        return tail > head + slack


def _record_reply(result: PhaseResult, conn: int, index: int, status: int,
                  raw: bytes, sequences: int, latency: float) -> None:
    body = json.loads(raw) if raw else {}
    if status != 200:
        result.failed += 1
        result.refusals.append((status, body.get("reason")))
        return
    result.latencies.append(latency)
    result.sequences_ok += sequences
    result.bodies[index] = body
    for item in body.get("results", [body]):
        if "model_version" in item:
            result.versions.setdefault(conn, []).append(int(item["model_version"]))


def open_loop(host: str, port: int, events, rate: float, duration_s: float,
              seed: int, connections: int, cutoff_s: float = 1.0,
              name: str = "open") -> PhaseResult:
    """Replay ``events`` (an iterator of trace events) on a Poisson schedule."""
    due = arrival_schedule(seed, rate, duration_s)
    encoded = [encode_event(event) for __, event in zip(due, events)]
    if len(encoded) < len(due):
        raise ValueError(f"trace ran dry: {len(encoded)} events for {len(due)} arrivals")
    result = PhaseResult(name=name, attempted=len(due))
    lock = threading.Lock()
    cursor = [0]
    epoch = time.perf_counter() + 0.05  # let every thread reach its first wait

    def worker(conn: int) -> None:
        client = HttpClient(host, port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(due):
                        return
                    cursor[0] += 1
                    taken = time.perf_counter() - epoch
                    result.backlogs.append(bisect.bisect_right(due, taken) - index)
                at = epoch + due[index]
                idle = taken <= due[index]
                delay = at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                if started - at > cutoff_s:
                    with lock:
                        result.failed += 1
                        result.cut_off += 1
                    continue
                path, body, sequences = encoded[index]
                try:
                    status, raw = client.request("POST", path, body)
                except OSError as error:
                    with lock:
                        result.failed += 1
                        result.transport_errors.append(str(error))
                    continue
                latency = time.perf_counter() - at
                with lock:
                    if idle:
                        result.late.append(started - at)
                    _record_reply(result, conn, index, status, raw, sequences, latency)
        finally:
            client.close()

    _run_threads(worker, connections)
    result.duration_s = max(time.perf_counter() - epoch, duration_s)
    return result


def closed_loop(host: str, port: int, events, duration_s: float,
                clients: int, name: str = "closed") -> PhaseResult:
    """``clients`` connections flat out for ``duration_s`` seconds."""
    result = PhaseResult(name=name)
    lock = threading.Lock()
    started_at = time.perf_counter()
    deadline = started_at + duration_s

    def worker(conn: int) -> None:
        client = HttpClient(host, port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    event = next(events, None)
                    index = result.attempted
                    if event is not None:
                        result.attempted += 1
                if event is None:
                    raise ValueError("trace ran dry during a closed-loop phase")
                path, body, sequences = encode_event(event)
                sent = time.perf_counter()
                try:
                    status, raw = client.request("POST", path, body)
                except OSError as error:
                    with lock:
                        result.failed += 1
                        result.transport_errors.append(str(error))
                    continue
                latency = time.perf_counter() - sent
                with lock:
                    _record_reply(result, conn, index, status, raw, sequences, latency)
        finally:
            client.close()

    _run_threads(worker, clients)
    result.duration_s = time.perf_counter() - started_at
    return result


def _run_threads(worker, count: int) -> None:
    """Run ``worker(i)`` on ``count`` threads; re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            worker(index)
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(index,), name=f"loadgen-{index}")
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
