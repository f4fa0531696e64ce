"""Concurrency stress: hot swaps under sharded traffic, no leaks.

Hammers a sharded pool with client threads while the main thread fires
``/admin/reload`` repeatedly.  The swap protocol (publish a fresh
segment, switch every worker under its shard lock, retire the old one)
must keep responses coherent: every answer is scored against exactly
one model generation, ``model_version`` never goes backwards from any
client's point of view, and no shared-memory segment outlives the pool.
"""

import http.client
import json
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.runtime.checkpointing import CheckpointManager
from repro.serve import RecommendationEngine, RecommendationServer, ShardedEngine

from .test_workers import shm_segments

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)

CLIENT_THREADS = 4
RELOADS = 5
DURATION_S = 2.5


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    model.fit(tiny_dataset)
    path = tmp_path_factory.mktemp("stress-ckpts")
    CheckpointManager(path).save(
        1, {f"model/{k}": v for k, v in model.state_dict().items()}
    )
    return path


def _post(host, port, path, payload, timeout=30):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_reload_storm_under_traffic(checkpoint_dir, tiny_dataset):
    model = build_model("SASRec", tiny_dataset, SCALE)
    template = RecommendationEngine.from_checkpoint(
        checkpoint_dir, model, tiny_dataset
    )
    engine = ShardedEngine(template, workers=2)
    server = RecommendationServer(
        engine, port=0, max_inflight=CLIENT_THREADS * 4
    )
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    host, port = server.address

    stop = threading.Event()
    per_thread_versions: list[list[int]] = [[] for _ in range(CLIENT_THREADS)]
    failures: list = []

    def hammer(thread_id: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        i = 0
        try:
            while not stop.is_set():
                if i % 3 == 0:
                    path = "/recommend/batch"
                    payload = {"requests": [
                        {"user": (thread_id * 31 + i + j) % 50, "k": 5}
                        for j in range(4)
                    ]}
                else:
                    path = "/recommend"
                    payload = {"user": (thread_id * 31 + i) % 50, "k": 5}
                conn.request(
                    "POST", path, body=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                if response.status == 200:
                    results = body["results"] if path.endswith("batch") else [body]
                    for result in results:
                        per_thread_versions[thread_id].append(
                            int(result["model_version"])
                        )
                        assert all(np.isfinite(result["scores"]))
                elif body.get("reason") != "shed":
                    failures.append((response.status, body))
                i += 1
        except Exception as error:  # noqa: BLE001 - collected for the report
            failures.append(repr(error))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=hammer, args=(t,), daemon=True)
        for t in range(CLIENT_THREADS)
    ]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + DURATION_S
        reloads_done = 0
        while reloads_done < RELOADS:
            time.sleep(max(0.0, (DURATION_S / RELOADS) * 0.5))
            status, body = _post(host, port, "/admin/reload", {})
            assert status == 200, body
            reloads_done += 1
        while time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        server.shutdown()
        serve_thread.join(timeout=5)
        engine.close()

    assert not failures, failures[:5]
    total = sum(len(v) for v in per_thread_versions)
    assert total > RELOADS * CLIENT_THREADS  # traffic actually flowed
    for versions in per_thread_versions:
        assert versions == sorted(versions)  # monotone per client
    assert engine.model_version == 1 + RELOADS
    # Someone observed a post-swap generation (the swap wasn't a no-op).
    assert max(v for versions in per_thread_versions for v in versions) > 1
    assert shm_segments() == []


def test_swap_storm_direct_api(checkpoint_dir, tiny_dataset):
    """Back-to-back swaps with interleaved scoring stay coherent."""
    model = build_model("SASRec", tiny_dataset, SCALE)
    template = RecommendationEngine.from_checkpoint(
        checkpoint_dir, model, tiny_dataset
    )
    with ShardedEngine(template, workers=2) as engine:
        for round_number in range(4):
            engine.swap_model(checkpoint_dir)
            expected = 2 + round_number
            result = engine.recommend(user=round_number, k=5)
            assert result.model_version == expected
            for stat in engine.worker_stats():
                assert stat["model_version"] == expected
                assert stat["generation"] == expected
            assert len(shm_segments()) == 1  # old segments retired eagerly
    assert shm_segments() == []


LEAK_CHECK_SCRIPT = """
import numpy as np
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model
from repro.serve import RecommendationEngine, ShardedEngine

dataset = SequenceDataset.from_log(
    generate_log(SyntheticConfig(num_users=60, num_items=40, seed=0)),
    name="leakcheck",
)
scale = ExperimentScale(epochs=1, dim=8, batch_size=32, max_length=8)
model = build_model("SASRec", dataset, scale)
engine = ShardedEngine(RecommendationEngine(model, dataset), workers=2)
print("items", engine.recommend(user=1, k=3).items.tolist())
engine.close()
"""


def test_no_resource_tracker_leak_warnings():
    """A full pool lifecycle must not trip the shared_memory resource
    tracker (the classic symptom of attach-side unlink bookkeeping)."""
    before = set(shm_segments())
    result = subprocess.run(
        [sys.executable, "-c", LEAK_CHECK_SCRIPT],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "items" in result.stdout
    assert "leaked shared_memory" not in result.stderr
    assert "resource_tracker" not in result.stderr
    assert set(shm_segments()) == before
