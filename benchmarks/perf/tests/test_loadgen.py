"""The load generator against a stub server with a known fixed delay."""

import json
import socket
import threading
import time

import pytest

from benchmarks.perf import loadgen


class StubServer:
    """Keep-alive HTTP/1.1 server: sleeps ``delay_s``, replies in one send."""

    def __init__(self, delay_s: float, status: int = 200, body: dict | None = None):
        self.delay_s = delay_s
        self.status = status
        self.body = json.dumps(body or {"items": [1], "model_version": 1}).encode()
        self.requests: list[tuple[str, bytes]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._threads: list[threading.Thread] = []
        self._accepting = threading.Thread(target=self._accept)
        self._accepting.start()

    def _accept(self):
        while True:
            try:
                conn, __ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,))
            thread.start()
            self._threads.append(thread)

    def _serve(self, conn):
        reader = conn.makefile("rb")
        with conn, reader:
            while True:
                request_line = reader.readline()
                if not request_line:
                    return
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                self.requests.append((request_line.split()[1].decode(), reader.read(length)))
                time.sleep(self.delay_s)
                conn.sendall(
                    f"HTTP/1.1 {self.status} X\r\nContent-Length: {len(self.body)}\r\n\r\n".encode()
                    + self.body
                )

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # close() alone leaves accept() blocked
        self._listener.close()
        self._accepting.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)
        assert not self._accepting.is_alive()
        assert not any(thread.is_alive() for thread in self._threads)


@pytest.fixture
def stub():
    servers = []

    def make(delay_s, **kwargs):
        servers.append(StubServer(delay_s, **kwargs))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def events():
    index = 0
    while True:
        yield {"index": index, "kind": "single", "requests": [{"user": index, "k": 10}]}
        index += 1


def test_schedule_is_identical_for_a_seed_and_differs_across_seeds():
    first = loadgen.arrival_schedule(7, 25.0, 24.0)
    again = loadgen.arrival_schedule(7, 25.0, 24.0)
    other = loadgen.arrival_schedule(8, 25.0, 24.0)
    assert repr(first).encode() == repr(again).encode()      # byte-identical
    assert first != other
    assert first == sorted(first) and 0 < first[0] and first[-1] < 24.0
    assert len(first) == pytest.approx(600, rel=0.15)         # 25 req/s for 24 s


def test_open_loop_times_each_request_from_its_due_time(stub):
    delay = 0.04
    server = stub(delay)
    # ~10 arrivals inside 50 ms, one connection, 40 ms each: request i
    # finishes (i + 1) delays after the first send, however late it went.
    due = loadgen.arrival_schedule(3, 200.0, 0.05)
    result = loadgen.open_loop("127.0.0.1", server.port, events(), 200.0, 0.05,
                               seed=3, connections=1)
    assert result.attempted == len(due) >= 3 and result.failed == 0
    assert len(result.latencies) == len(due)
    for index, latency in enumerate(result.latencies):
        expected = due[0] + (index + 1) * delay - due[index]
        assert latency == pytest.approx(expected, abs=0.015)
    # Timed from *send*, every one of them would have read ~one delay.
    assert result.latencies[-1] > 2 * delay
    assert result.backlog_max >= 2
    assert result.sequences_ok == len(due)
    assert result.versions == {0: [1] * len(due)}


def test_request_not_started_within_the_cutoff_is_a_failure(stub):
    server = stub(0.25)
    result = loadgen.open_loop("127.0.0.1", server.port, events(), 40.0, 0.2,
                               seed=5, connections=1, cutoff_s=0.4)
    assert result.cut_off > 0
    assert result.failed == result.cut_off
    assert len(result.latencies) + result.failed == result.attempted
    assert len(server.requests) == len(result.latencies)     # cut-off ones were never sent


def test_refusals_are_failures_and_keep_their_reason(stub):
    server = stub(0.0, status=503, body={"error": "busy", "reason": "shed"})
    result = loadgen.closed_loop("127.0.0.1", server.port, events(), 0.1, clients=2)
    assert result.attempted > 0 and result.failed == result.attempted
    assert result.latencies == [] and result.sequences_ok == 0
    assert set(result.refusals) == {(503, "shed")}


def test_closed_loop_counts_batches_by_their_members(stub):
    server = stub(0.0, body={"results": [{"items": [1], "model_version": 2}] * 3})
    batch = {"kind": "batch", "requests": [{"sequence": [1, 2], "k": 10}] * 3}
    result = loadgen.closed_loop("127.0.0.1", server.port, iter([batch] * 1000), 0.05,
                                 clients=1)
    assert result.ok > 0 and result.sequences_ok == 3 * result.ok
    assert server.requests[0][0] == "/recommend/batch"
    assert json.loads(server.requests[0][1]) == {"requests": batch["requests"]}


def test_backlog_growing_compares_last_quarter_with_first():
    steady = loadgen.PhaseResult("steady", backlogs=[1, 0, 2, 1] * 10)
    growing = loadgen.PhaseResult("growing", backlogs=list(range(40)))
    assert not steady.backlog_growing(slack=2)
    assert growing.backlog_growing(slack=2)
