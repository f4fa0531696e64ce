"""HTTP-layer resilience: structured errors, shedding, reload, watchers."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.config import ExperimentScale
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


def _post(server, path, payload):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def _get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestStructuredErrors:
    def test_bad_request_carries_reason(self, stack):
        server = stack[0]
        status, body, __ = _post(server, "/recommend", {"user": 1, "sequence": [2]})
        assert status == 400
        assert body["reason"] == "bad_request"
        assert "error" in body

    def test_404_carries_reason_on_get_and_post(self, stack):
        server = stack[0]
        status, body = _get(server, "/nope")
        assert status == 404 and body["reason"] == "not_found"
        status, body, __ = _post(server, "/nope", {})
        assert status == 404 and body["reason"] == "not_found"

    def test_get_failures_use_the_same_envelope(self, stack):
        server = stack[0]
        original = server.health
        server.health = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        try:
            status, body = _get(server, "/health")
        finally:
            server.health = original
        assert status == 500
        assert body["reason"] == "internal"
        assert "boom" in body["error"]

    def test_oversize_body_is_413(self, stack):
        server = stack[0]
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/recommend")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            # The server must refuse from the header alone, without
            # waiting for (or reading) the gigantic body.
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        assert body["reason"] == "body_too_large"

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
    def test_malformed_ids_are_400_not_500_or_user_1(self, stack, payload):
        status, body, __ = _post(stack[0], "/recommend", payload)
        assert status == 400
        assert body["reason"] == "bad_request"

    def test_batch_reports_malformed_item_and_serves_neighbours(self, stack):
        server = stack[0]
        status, body, __ = _post(
            server,
            "/recommend/batch",
            {"requests": [{"user": 2, "k": 3}, {"user": "abc"}, {"user": 1.7},
                          {"user": 3, "k": 4}]},
        )
        assert status == 200
        first, second, third, fourth = body["results"]
        assert (first["user"], len(first["items"])) == (2, 3)
        assert second["reason"] == third["reason"] == "bad_request"
        assert "integer" in second["error"]
        assert (fourth["user"], len(fourth["items"])) == (3, 4)


class TestDeadlinesOverHTTP:
    def test_microscopic_deadline_is_504(self, stack):
        server = stack[0]
        status, body, __ = _post(
            server, "/recommend", {"user": 0, "k": 5, "deadline_ms": 0.001}
        )
        assert status == 504
        assert body["reason"] == "deadline_exceeded"

    def test_batch_reports_deadline_per_item(self, stack):
        server = stack[0]
        status, body, __ = _post(
            server,
            "/recommend/batch",
            {
                "requests": [
                    {"user": 0, "deadline_ms": 0.001},
                    {"user": 1, "k": 5},
                ]
            },
        )
        assert status == 200
        first, second = body["results"]
        assert first["reason"] == "deadline_exceeded"
        assert len(second["items"]) == 5

    def test_batch_reports_bad_request_per_item(self, stack):
        server, engine = stack[0], stack[1]
        bad_user = engine.dataset.num_users + 50
        status, body, __ = _post(
            server,
            "/recommend/batch",
            {"requests": [{"user": bad_user}, {"user": 2, "k": 3}]},
        )
        assert status == 200
        first, second = body["results"]
        assert first["reason"] == "bad_request"
        assert "out of range" in first["error"]
        assert len(second["items"]) == 3


class TestLoadShedding:
    def test_concurrent_overload_sheds_with_retry_after(self, stack):
        server, engine, faults = stack[0], stack[1], stack[2]
        faults.encode_delay_s = 0.25
        engine.invalidate_cache()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(
                        _post,
                        server,
                        "/recommend",
                        {"sequence": [1 + i, 2 + i], "k": 3},
                    )
                    for i in range(8)
                ]
                outcomes = [f.result() for f in futures]
        finally:
            faults.encode_delay_s = 0.0
        statuses = [status for status, __, __ in outcomes]
        assert set(statuses) <= {200, 503}
        assert 200 in statuses
        shed = [
            (body, headers)
            for status, body, headers in outcomes
            if status == 503
        ]
        assert shed, "expected at least one shed request (max_inflight=2)"
        for body, headers in shed:
            assert body["reason"] == "shed"
            assert headers.get("Retry-After") is not None
        snapshot = engine.metrics.snapshot()
        assert snapshot["counters"]["requests_shed"] >= len(shed)


class TestAdminReload:
    def test_reload_bumps_version_and_health_reports_it(self, stack, tiny_dataset):
        server, engine, __, ckpt_dir = stack
        version = engine.model_version
        model = build_model(
            "SASRec", tiny_dataset, SCALE.with_overrides(seed=SCALE.seed + 3)
        )
        model.fit(tiny_dataset)
        CheckpointManager(ckpt_dir).save(
            5, {f"model/{k}": v for k, v in model.state_dict().items()}
        )
        status, body, __ = _post(server, "/admin/reload", {})
        assert status == 200
        assert body["status"] == "reloaded"
        assert body["model_version"] == version + 1
        assert body["step"] == 5
        health = _get(server, "/health")[1]
        assert health["model_version"] == version + 1
        assert health["breaker"] in ("closed", "open", "half_open")
        assert "inflight" in health
        result = _post(server, "/recommend", {"user": 0, "k": 5})[1]
        assert result["model_version"] == version + 1

    def test_reload_corrupt_checkpoint_is_500_and_keeps_serving(self, stack):
        server, engine, __, ckpt_dir = stack
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
        status, body, __ = _post(
            server, "/admin/reload", {"checkpoint": corrupt}
        )
        assert status == 500
        assert body["reason"] == "swap_failed"
        assert engine.model_version == version
        assert _post(server, "/recommend", {"user": 1})[0] == 200

    def test_metrics_expose_resilience_schema(self, stack):
        server = stack[0]
        status, body = _get(server, "/metrics")
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
