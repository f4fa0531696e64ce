"""The HTTP front-end (stdlib ThreadingHTTPServer)."""

import contextlib
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments.config import ExperimentScale
from repro.loadtest import Client
from repro.models.registry import build_model
from repro.serve import RecommendationEngine, RecommendationServer
from repro.serve.server import MAX_BODY_BYTES

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


def test_a_serving_process_does_not_import_its_drivers():
    """The load test, the chaos scenario and their HTTP client live in
    ``repro.loadtest``; a fresh server process loads none of them."""
    code = (
        "import sys, repro.serve.server; "
        "print('repro.loadtest' in sys.modules, 'urllib.request' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["False", "False"]


@pytest.fixture(scope="module")
def fitted_model(tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    return model


@contextlib.contextmanager
def _serving(engine):
    srv = RecommendationServer(engine, port=0)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def server(fitted_model, tiny_dataset):
    engine = RecommendationEngine(fitted_model, tiny_dataset, max_batch_size=8)
    with _serving(engine) as srv:
        yield srv


@pytest.fixture
def client(server):
    with Client(*server.address) as connection:
        yield connection


class TestEndpoints:
    def test_recommend(self, client):
        reply = client.post("/recommend", {"user": 0, "k": 5})
        assert reply.status == 200
        assert len(reply.body["items"]) == 5
        assert reply.body["user"] == 0

    def test_recommend_is_deterministic(self, client):
        first = client.post("/recommend", {"user": 3, "k": 5}).body
        second = client.post("/recommend", {"user": 3, "k": 5}).body
        assert first == second

    def test_recommend_batch(self, client):
        reply = client.post(
            "/recommend/batch",
            {"requests": [{"user": 1}, {"sequence": [2, 4]}]},
        )
        assert reply.status == 200
        assert len(reply.body["results"]) == 2
        assert reply.body["results"][1]["sequence"] == [2, 4]

    def test_metrics(self, client):
        client.post("/recommend", {"user": 2})
        reply = client.get("/metrics")
        assert reply.status == 200
        assert reply.body["counters"]["requests"] >= 1
        assert "total" in reply.body["latency"]

    def test_health(self, client, tiny_dataset):
        reply = client.get("/health")
        assert reply.status == 200
        assert reply.body["status"] == "ok"
        assert reply.body["num_items"] == tiny_dataset.num_items


class TestErrorHandling:
    def test_malformed_request_is_400(self, client):
        reply = client.post("/recommend", {"user": 1, "sequence": [2]})
        assert reply.status == 400
        assert "error" in reply.body

    def test_bad_batch_shape_is_400(self, client):
        assert client.post("/recommend/batch", {"requests": "nope"}).status == 400

    def test_invalid_json_is_400(self, server):
        body = b"{not json"
        head = f"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}"
        self._assert_400_then_served(server, head.encode() + b"\r\n\r\n" + body)

    def test_unknown_path_is_404(self, client):
        assert client.get("/nope").status == 404

    def _assert_400_then_served(self, server, bad_request):
        """``bad_request`` is a 400 ``bad_request`` (not a 500), and —
        its body having been read — the connection serves the next one."""
        sends, __ = _handler_sends(server, bad_request, _raw("GET", "/health"))
        (status, headers, body), (next_status, __, __) = map(_parse_reply, sends)
        assert (status, body["reason"]) == (400, "bad_request")
        assert "Connection" not in headers
        assert next_status == 200

    def test_non_utf8_body_is_400(self, server):
        body = b'{"user": "\xff\xfe"}'
        head = f"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}"
        self._assert_400_then_served(server, head.encode() + b"\r\n\r\n" + body)

    @pytest.mark.parametrize("payload", [[1], "x", 3])
    def test_non_object_reload_body_is_400(self, server, payload):
        self._assert_400_then_served(server, _raw("POST", "/admin/reload", payload))

    @pytest.mark.parametrize("checkpoint", [3, ["a"], {"path": "a"}, True])
    def test_non_string_reload_checkpoint_is_400(self, server, checkpoint):
        """Was a 500: ``os.fspath`` raised ``TypeError`` inside ``swap_model``."""
        self._assert_400_then_served(
            server, _raw("POST", "/admin/reload", {"checkpoint": checkpoint})
        )
        assert server.engine.model_version == 1


def _raw(method, path, payload=None, headers=()):
    """One HTTP/1.1 request as the bytes a client would ``sendall``."""
    body = b"" if payload is None else json.dumps(payload).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
    if payload is not None:
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def _parse_reply(raw):
    """``(status, headers, body)`` of bytes that must be one whole reply."""
    head, __, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1.1 ")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert int(headers["Content-Length"]) == len(body)
    assert headers["Content-Type"] == "application/json"
    return int(status_line.split()[1]), headers, json.loads(body)


class CountingSocket:
    """The accepted socket, recording every ``sendall`` made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = []

    def sendall(self, data):
        self.sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _handler_sends(server, *requests):
    """Run the server's handler, in this thread, over one accepted TCP
    connection carrying ``requests`` back to back.  Returns every
    ``sendall`` the handler made and the accepted socket's TCP_NODELAY."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        address = listener.getsockname()
        with socket.create_connection(address, timeout=10) as client:
            accepted, peer = listener.accept()
            with accepted:
                accepted.settimeout(10)
                client.sendall(b"".join(requests))
                client.shutdown(socket.SHUT_WR)
                counting = CountingSocket(accepted)
                server.httpd.RequestHandlerClass(counting, peer, server.httpd)
                nodelay = accepted.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
    return counting.sends, nodelay


#: A reply larger than a buffered writer's 8 KiB, which would split it.
BIG_BATCH = {"requests": [{"user": u, "k": 50} for u in range(24)]}

ONE_SEND_CASES = {
    "keep-alive-mix": (
        [
            _raw("POST", "/recommend", {"user": 0, "k": 5}),
            _raw("POST", "/recommend/batch", BIG_BATCH),
            _raw("GET", "/metrics"),
            _raw("GET", "/health"),
            _raw("POST", "/recommend", {"user": 1, "sequence": [2]}),
            _raw("GET", "/nope"),
            _raw("POST", "/recommend", {"user": 0, "deadline_ms": 0.001}),
            _raw("POST", "/admin/reload", {}),
        ],
        [200, 200, 200, 200, 400, 404, 504, 400],
        False,
    ),
    "refused-body": (
        [_raw("POST", "/recommend", headers=[f"Content-Length: {MAX_BODY_BYTES + 1}"])],
        [413],
        True,
    ),
    "send_error-method": ([_raw("PUT", "/recommend", {})], [501], True),
    "send_error-request-line": ([b"GARBAGE\r\n\r\n"], [400], True),
}


class TestOneSegmentPerReply:
    """Every reply is handed to the socket whole, by one ``sendall``: a
    reply split in two meets the client's delayed ACK and stalls 40 ms."""

    @pytest.mark.parametrize("case", ONE_SEND_CASES)
    def test_one_send_per_reply(self, server, case):
        requests, statuses, closes = ONE_SEND_CASES[case]
        sends, nodelay = _handler_sends(server, *requests)
        replies = [_parse_reply(send) for send in sends]
        assert [status for status, __, __ in replies] == statuses
        assert nodelay
        # Keep-alive holds unless the (last) reply announces the close.
        closing = [headers.get("Connection") == "close" for __, headers, __ in replies]
        assert closing == [False] * (len(replies) - 1) + [closes]

    def test_large_batch_reply_is_still_one_send(self, server):
        sends, __ = _handler_sends(server, _raw("POST", "/recommend/batch", BIG_BATCH))
        assert len(sends) == 1 and len(sends[0]) > 8192

    def test_shed_reply_is_one_send_with_retry_after(self, server):
        with contextlib.ExitStack() as held:
            for __ in range(server.admission.max_inflight):
                held.enter_context(server.admission.admit())
            sends, __ = _handler_sends(
                server, _raw("POST", "/recommend", {"user": 0})
            )
        (status, headers, body), = map(_parse_reply, sends)
        assert (status, body["reason"]) == (503, "shed")
        assert headers["Retry-After"] == "1"
        assert "Connection" not in headers


def _median_round_trip_ms(server, requests=30):
    """Sequential ``POST /recommend`` on one keep-alive connection, the
    benchmark generator's shape: default socket options, one ``sendall``
    per request, next request when the reply has been read."""
    request = _raw("POST", "/recommend", {"user": 0, "k": 5})
    samples = []
    with socket.create_connection(server.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        for __ in range(requests):
            begin = time.perf_counter()
            sock.sendall(request)
            assert reader.readline().split()[1] == b"200"
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            assert "items" in json.loads(reader.read(length))
            samples.append(time.perf_counter() - begin)
    return 1e3 * statistics.median(samples)


class TestNoDelayedAckStall:
    """A two-segment reply costs a busy keep-alive connection ≈ 44 ms a
    request (the client's delayed ACK); a whole one ≈ 0.5 ms.  The bound
    sits 2× under the stalled value and 30× over the healthy one."""

    def test_keep_alive_round_trip_is_not_stalled(self, server):
        assert _median_round_trip_ms(server) < 20.0


def _head(request_line, *headers, body=b""):
    """A request head (and optional body) with exactly these header lines."""
    return "\r\n".join([request_line, *headers]).encode() + b"\r\n\r\n" + body


class TestRequestHead:
    """How the request line and headers are read.  Every case holds for
    ``http.server``'s own reader too: the server reads heads its own way
    and must answer them as the stdlib did."""

    def _statuses(self, server, *requests):
        sends, __ = _handler_sends(server, *requests)
        return [_parse_reply(send)[0] for send in sends]

    def test_header_names_are_case_insensitive(self, server):
        body = json.dumps({"user": 0, "k": 3}).encode()
        request = _head(
            "POST /recommend HTTP/1.1",
            "hOST: test",
            f"content-LENGTH: {len(body)}",
            body=body,
        )
        sends, __ = _handler_sends(server, request, _raw("GET", "/health"))
        (status, __, reply), (next_status, __, __) = map(_parse_reply, sends)
        assert (status, len(reply["items"]), next_status) == (200, 3, 200)

    def test_first_of_repeated_connection_headers_wins(self, server):
        keep = _head(
            "GET /health HTTP/1.0", "Connection: keep-alive", "Connection: close"
        )
        close = _head(
            "GET /health HTTP/1.1", "Connection: close", "Connection: keep-alive"
        )
        assert self._statuses(server, keep, _raw("GET", "/health")) == [200, 200]
        assert self._statuses(server, close, _raw("GET", "/health")) == [200]

    def test_http_1_0_closes_unless_it_asks_to_keep_alive(self, server):
        plain = _head("GET /health HTTP/1.0")
        kept = _head("GET /health HTTP/1.0", "CONNECTION: Keep-Alive")
        assert self._statuses(server, plain, _raw("GET", "/health")) == [200]
        assert self._statuses(server, kept, _raw("GET", "/health")) == [200, 200]

    def test_connection_close_on_http_1_1_closes(self, server):
        request = _head("GET /health HTTP/1.1", "Host: test", "Connection: close")
        assert self._statuses(server, request, _raw("GET", "/health")) == [200]

    def test_expect_100_continue_gets_an_interim_100(self, server):
        body = json.dumps({"user": 0}).encode()
        request = _head(
            "POST /recommend HTTP/1.1",
            "Host: test",
            "Expect: 100-continue",
            f"Content-Length: {len(body)}",
            body=body,
        )
        interim, reply = _handler_sends(server, request)[0]
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert _parse_reply(reply)[0] == 200

    def test_the_101st_header_line_is_a_431(self, server):
        lines = [f"X-Header-{i}: v" for i in range(101)]
        request = _head("GET /health HTTP/1.1", *lines)
        assert self._statuses(server, request, _raw("GET", "/health")) == [431]

    @pytest.mark.parametrize(
        "request_line, status",
        [
            ("GET /health HTTP/2.0", 505),
            ("GET /health HTTP/1.x", 400),
            ("GET /health HTTP/1.1.1", 400),
            ("GET /health FTP/1.1", 400),
        ],
        ids=["http2", "non-digit", "two-dots", "not-http"],
    )
    def test_request_line_versions(self, server, request_line, status):
        request = _head(request_line, "Host: test")
        assert self._statuses(server, request, _raw("GET", "/health")) == [status]
