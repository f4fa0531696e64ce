"""Shared fixtures for the online-loop suite."""

import numpy as np
import pytest

from repro.data.synthetic import synthesize_trace
from repro.experiments.config import ExperimentScale
from repro.models.registry import build_model

SCALE = ExperimentScale(epochs=1, dim=16, batch_size=32, max_length=12)


@pytest.fixture()
def tiny_model(tiny_dataset):
    """A deterministic (untrained) CL4SRec — loop mechanics don't need
    a converged model, and skipping fit keeps the suite fast."""
    return build_model("CL4SRec", tiny_dataset, SCALE)


@pytest.fixture()
def tiny_trainer(tiny_dataset):
    return build_model("CL4SRec", tiny_dataset, SCALE)


@pytest.fixture()
def tiny_trace(tiny_dataset):
    return synthesize_trace(
        num_events=120,
        user_pool=tiny_dataset.num_users,
        num_items=tiny_dataset.num_items,
        hot_users=40,
        seed=17,
    )


def sequences_of(trace):
    """Flatten a trace into raw request payload sequences."""
    out = []
    for event in trace.events():
        for payload in event["requests"]:
            out.append(payload)
    return out


def random_sequences(n, num_items, rng=None, min_len=3, max_len=10):
    rng = rng or np.random.default_rng(0)
    return [
        rng.integers(1, num_items + 1, size=int(rng.integers(min_len, max_len + 1)))
        for __ in range(n)
    ]
