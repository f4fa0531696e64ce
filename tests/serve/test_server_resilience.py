"""HTTP-layer resilience: structured errors, shedding, reload, watchers."""

import json
import socket
import threading

import pytest

from repro.experiments.config import ExperimentScale
from repro.loadtest import Client
from repro.loadtest.harness import run_clients
from repro.models.registry import build_model
from repro.runtime.checkpointing import CheckpointManager
from repro.runtime.faults import FaultInjector
from repro.serve import (
    BreakerConfig,
    RecommendationEngine,
    RecommendationServer,
    ResilienceConfig,
    ResiliencePolicy,
)
from repro.serve.server import MAX_BODY_BYTES

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture(scope="module")
def stack(tiny_dataset, tmp_path_factory):
    """A served engine loaded from a real checkpoint, with shared faults."""
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    ckpt_dir = tmp_path_factory.mktemp("server-resilience-ckpts")
    manager = CheckpointManager(ckpt_dir)
    manager.save(1, {f"model/{k}": v for k, v in model.state_dict().items()})
    faults = FaultInjector()
    fresh = build_model("SASRec", tiny_dataset, SCALE)
    policy = ResiliencePolicy(
        ResilienceConfig(
            breaker=BreakerConfig(window=64, min_calls=64, reset_timeout_s=0.5)
        )
    )
    engine = RecommendationEngine.from_checkpoint(
        ckpt_dir,
        fresh,
        tiny_dataset,
        max_batch_size=8,
        resilience=policy,
        faults=faults,
    )
    srv = RecommendationServer(engine, port=0, max_inflight=2, retry_after_s=0.2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv, engine, faults, ckpt_dir
    srv.shutdown()
    thread.join(timeout=5)


@pytest.fixture
def client(stack):
    with Client(*stack[0].address) as connection:
        yield connection


def _replies_until_close(server, raw):
    """Send ``raw`` on one socket and read until the server ends the
    connection; a server that keeps it open times out (and fails).
    Returns ``(status, headers, decoded JSON body)`` per reply."""
    received = b""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(raw)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed with our unread bytes pending: a reset, after the reply
    replies = []
    while received:
        head, __, rest = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        replies.append(
            (int(status_line.split()[1]), headers, json.loads(rest[:length]))
        )
        received = rest[length:]
    return replies


def _bare(method, path):
    """A body-less HTTP/1.1 request."""
    return f"{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode()


GET_HEALTH = _bare("GET", "/health")

#: Two ``Content-Length`` values: a reader taking the first would parse
#: the rest of the body as a second request, a hidden ``GET /metrics``.
_HIDDEN = b'{"user": 0}' + _bare("GET", "/metrics")
SMUGGLED = (
    b"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: 11\r\n"
    + f"Content-Length: {len(_HIDDEN)}\r\n\r\n".encode()
    + _HIDDEN
)


class TestStructuredErrors:
    def test_bad_request_carries_reason(self, client):
        reply = client.post("/recommend", {"user": 1, "sequence": [2]})
        status, body = reply.status, reply.body
        assert status == 400
        assert body["reason"] == "bad_request"
        assert "error" in body

    def test_404_carries_reason_on_get_and_post(self, client):
        for reply in (client.get("/nope"), client.post("/nope", {})):
            assert (reply.status, reply.body["reason"]) == (404, "not_found")

    def test_get_failures_use_the_same_envelope(self, stack, client):
        server = stack[0]
        original = server.health
        server.health = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        try:
            reply = client.get("/health")
        finally:
            server.health = original
        status, body = reply.status, reply.body
        assert status == 500
        assert body["reason"] == "internal"
        assert "boom" in body["error"]

    def test_oversize_body_is_413(self, stack):
        # The server must refuse from the header alone, without
        # waiting for (or reading) the gigantic body.
        (status, __, body), = _replies_until_close(
            stack[0],
            b"POST /recommend HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        assert (status, body["reason"]) == (413, "body_too_large")

    def test_truncated_body_is_400_not_hang(self, stack):
        server = stack[0]
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            payload = b'{"user": 0'
            sock.sendall(
                b"POST /recommend HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(payload) + 40}\r\n\r\n".encode()
                + payload
            )
            sock.shutdown(socket.SHUT_WR)  # body ends early: short read
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n")[0]
        decoded = json.loads(body)
        assert "truncated" in decoded["error"]
        assert decoded["reason"] == "bad_request"

    def test_refused_body_does_not_poison_the_connection(self, stack):
        """The unread body must not be parsed as the next request line."""
        (status, headers, body), = _replies_until_close(
            stack[0],
            b"POST /recommend HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            + b"x" * 100
            + GET_HEALTH,
        )
        assert (status, body["reason"]) == (413, "body_too_large")
        assert headers["Connection"] == "close"

    @pytest.mark.parametrize(
        "framing",
        ["Content-Length: abc", "Content-Length: -5", "Transfer-Encoding: chunked"],
        ids=["non-numeric", "negative", "chunked"],
    )
    def test_unknown_body_length_is_400_and_closes(self, stack, framing):
        (status, headers, body), = _replies_until_close(
            stack[0],
            f"POST /recommend HTTP/1.1\r\nHost: test\r\n{framing}\r\n\r\n".encode()
            + b'{"user": 0}'
            + GET_HEALTH,
        )
        assert (status, body["reason"]) == (400, "bad_request")
        assert headers["Connection"] == "close"

    def test_get_body_is_drained_not_parsed_as_a_request(self, stack):
        first, second = _replies_until_close(
            stack[0],
            b"GET /health HTTP/1.1\r\nHost: test\r\nContent-Length: 4\r\n\r\nabcd"
            b"GET /nope HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        )
        assert first[0] == 200 and first[2]["status"] == "ok"
        assert (second[0], second[2]["reason"]) == (404, "not_found")

    @pytest.mark.parametrize(
        "raw, status, reason",
        [
            (_bare("PUT", "/recommend"), 501, "unsupported_method"),
            (_bare("HEAD", "/recommend"), 501, "unsupported_method"),
            (_bare("DELETE", "/recommend"), 501, "unsupported_method"),
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
            (_bare("GET", "/" + "a" * 70000), 414, "bad_request"),
            (
                b"GET /health HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n",
                431,
                "bad_request",
            ),
            (SMUGGLED, 400, "bad_request"),
            (
                b"GET /health HTTP/1.1\r\nHost: test\r\nX-A: 1\r\n folded\r\n\r\n",
                400,
                "bad_request",
            ),
            (
                b"GET /health HTTP/1.1\r\nHost: test\r\nno colon here\r\n\r\n",
                400,
                "bad_request",
            ),
        ],
        ids=[
            "put", "head", "delete", "request-line", "long-uri", "long-header",
            "conflicting-content-length", "obs-fold", "no-colon",
        ],
    )
    def test_stdlib_errors_use_the_json_envelope(self, stack, raw, status, reason):
        """What ``http.server`` answers on its own keeps its status code
        but not its HTML page."""
        (got, headers, body), = _replies_until_close(stack[0], raw + GET_HEALTH)
        assert (got, body["reason"]) == (status, reason)
        assert body["error"]
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"

    def test_one_hundred_header_lines_are_read(self, stack):
        """The limit is 100 header lines (``http.server`` counted the
        blank line that ends them, so it refused the 100th)."""
        lines = b"".join(b"X-%d: v\r\n" % i for i in range(99))
        request = b"GET /health HTTP/1.1\r\nHost: test\r\n" + lines + b"\r\n"
        replies = _replies_until_close(
            stack[0],
            request + b"GET /nope HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        )
        assert [status for status, __, __ in replies] == [200, 404]

    @pytest.mark.parametrize(
        "payload",
        [
            {"user": "abc"},
            {"user": [1]},
            {"user": 1.7},
            {"user": True},
            {"sequence": [10**30]},
        ],
    )
    def test_malformed_ids_are_400_not_500_or_user_1(self, client, payload):
        reply = client.post("/recommend", payload)
        assert (reply.status, reply.body["reason"]) == (400, "bad_request")

    def test_padding_id_in_a_session_is_400(self, client):
        reply = client.post("/recommend", {"sequence": [5, 0, 7]})
        status, body = reply.status, reply.body
        assert (status, body["reason"]) == (400, "bad_request")
        assert "0 is padding" in body["error"]

    def test_batch_reports_malformed_item_and_serves_neighbours(self, client):
        reply = client.post(
            "/recommend/batch",
            {"requests": [{"user": 2, "k": 3}, {"user": "abc"}, {"user": 1.7},
                          {"user": 3, "k": 4}]},
        )
        assert reply.status == 200
        first, second, third, fourth = reply.body["results"]
        assert (first["user"], len(first["items"])) == (2, 3)
        assert second["reason"] == third["reason"] == "bad_request"
        assert "integer" in second["error"]
        assert (fourth["user"], len(fourth["items"])) == (3, 4)


class TestDeadlinesOverHTTP:
    def test_microscopic_deadline_is_504(self, client):
        reply = client.post("/recommend", {"user": 0, "k": 5, "deadline_ms": 0.001})
        assert (reply.status, reply.body["reason"]) == (504, "deadline_exceeded")

    def test_batch_reports_deadline_per_item(self, client):
        reply = client.post(
            "/recommend/batch",
            {
                "requests": [
                    {"user": 0, "deadline_ms": 0.001},
                    {"user": 1, "k": 5},
                ]
            },
        )
        assert reply.status == 200
        first, second = reply.body["results"]
        assert first["reason"] == "deadline_exceeded"
        assert len(second["items"]) == 5

    def test_batch_reports_bad_request_per_item(self, stack, client):
        bad_user = stack[1].dataset.num_users + 50
        reply = client.post(
            "/recommend/batch",
            {"requests": [{"user": bad_user}, {"user": 2, "k": 3}]},
        )
        assert reply.status == 200
        first, second = reply.body["results"]
        assert first["reason"] == "bad_request"
        assert "out of range" in first["error"]
        assert len(second["items"]) == 3

    def test_batch_reports_padding_id_per_item(self, client):
        reply = client.post(
            "/recommend/batch",
            {"requests": [{"sequence": [0], "k": 3}, {"sequence": [5, 7], "k": 3}]},
        )
        assert reply.status == 200
        first, second = reply.body["results"]
        assert first["reason"] == "bad_request"
        assert "0 is padding" in first["error"]
        assert len(second["items"]) == 3


class TestLoadShedding:
    def test_concurrent_overload_sheds_with_retry_after(self, stack):
        server, engine, faults = stack[0], stack[1], stack[2]
        faults.encode_delay_s = 0.25
        engine.invalidate_cache()
        replies = []

        def one_request(index, client):
            replies.append(
                client.post("/recommend", {"sequence": [1 + index, 2 + index], "k": 3})
            )

        try:
            run_clients(*server.address, 10.0, [one_request] * 8)
        finally:
            faults.encode_delay_s = 0.0
        statuses = [reply.status for reply in replies]
        assert set(statuses) <= {200, 503}
        assert 200 in statuses
        shed = [reply for reply in replies if reply.status == 503]
        assert shed, "expected at least one shed request (max_inflight=2)"
        for reply in shed:
            assert reply.body["reason"] == "shed"
            assert reply.headers.get("Retry-After") is not None
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["requests_shed"] >= len(shed)


class TestAdminReload:
    def test_reload_bumps_version_and_health_reports_it(
        self, stack, client, tiny_dataset
    ):
        __, engine, __, ckpt_dir = stack
        version = engine.model_version
        model = build_model(
            "SASRec", tiny_dataset, SCALE.with_overrides(seed=SCALE.seed + 3)
        )
        model.fit(tiny_dataset)
        CheckpointManager(ckpt_dir).save(
            5, {f"model/{k}": v for k, v in model.state_dict().items()}
        )
        reply = client.post("/admin/reload", {})
        assert reply.status == 200
        assert reply.body["status"] == "reloaded"
        assert reply.body["model_version"] == version + 1
        assert reply.body["step"] == 5
        health = client.get("/health").body
        assert health["model_version"] == version + 1
        assert health["breaker"] in ("closed", "open", "half_open")
        assert "inflight" in health
        result = client.post("/recommend", {"user": 0, "k": 5}).body
        assert result["model_version"] == version + 1

    def test_reload_corrupt_checkpoint_is_500_and_keeps_serving(self, stack, client):
        __, engine, __, ckpt_dir = stack
        version = engine.model_version
        manager = CheckpointManager(ckpt_dir)
        latest = manager.latest_step()
        corrupt = str(manager.path_for(latest + 1))
        import shutil

        shutil.copyfile(manager.path_for(latest), corrupt)
        # The sidecar must ride along: that checksum is what convicts
        # the flipped byte below.
        shutil.copyfile(
            str(manager.path_for(latest)) + ".sha256", corrupt + ".sha256"
        )
        FaultInjector.corrupt_file(corrupt, flip_byte_at=24)
        reply = client.post("/admin/reload", {"checkpoint": corrupt})
        assert (reply.status, reply.body["reason"]) == (500, "swap_failed")
        assert engine.model_version == version
        assert client.post("/recommend", {"user": 1}).status == 200

    def test_metrics_expose_resilience_schema(self, client):
        reply = client.get("/metrics")
        status, body = reply.status, reply.body
        assert status == 200
        for counter in (
            "requests_shed",
            "requests_degraded",
            "fallback_cache",
            "fallback_popularity",
            "deadline_exceeded",
            "encode_errors",
            "model_swaps",
        ):
            assert counter in body["counters"]
        for gauge in ("breaker_state", "model_version", "inflight_requests"):
            assert gauge in body["gauges"]
