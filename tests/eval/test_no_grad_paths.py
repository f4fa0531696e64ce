"""Regression: evaluation and serving never build an autograd graph.

A scoring path that forgets ``no_grad()`` still returns correct
numbers — it just silently retains every intermediate activation and
backward closure, which is exactly the kind of regression a functional
test cannot see.  These tests count every Tensor created *with parents*
(i.e. graph nodes) during an Evaluator run and a RecommendationEngine
request and require the count to be zero.
"""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator, candidate_scores
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainConfig
from repro.nn.tensor import Tensor
from repro.serve.engine import RecommendationEngine
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


@pytest.fixture(scope="module")
def model(dataset):
    # Untrained weights are fine: graph construction is a property of
    # the code path, not of the parameter values.
    return SASRec(
        dataset,
        SASRecConfig(
            dim=16,
            train=TrainConfig(epochs=1, batch_size=32, max_length=12, seed=0),
        ),
    )


class GraphNodeCounter:
    """Counts Tensors created with parents (= autograd graph nodes)."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = Tensor._make

        def counting_make(data, parents=(), backward=None):
            tensor = original(data, parents, backward)
            if tensor._parents:
                self.count += 1
            return tensor

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))


def test_counter_detects_graph_nodes(monkeypatch):
    """Sanity: the instrument actually fires in grad mode."""
    counter = GraphNodeCounter(monkeypatch)
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    (x * 2.0).sum()
    assert counter.count > 0


def test_evaluator_builds_no_graph(dataset, model, monkeypatch):
    counter = GraphNodeCounter(monkeypatch)
    result = Evaluator(dataset, split="test").evaluate(model, max_users=16)
    assert result.num_users == 16
    assert counter.count == 0, (
        f"Evaluator.evaluate created {counter.count} autograd graph nodes"
    )


def test_projected_scorer_builds_no_graph(dataset, model, monkeypatch):
    """The E-A1 ablation scores through the projection head."""
    from repro.core.cl4srec import CL4SRec, CL4SRecConfig

    cl4srec = CL4SRec(dataset, CL4SRecConfig(sasrec=model.config))
    counter = GraphNodeCounter(monkeypatch)
    users = dataset.evaluation_users("test")[:4]
    scores = cl4srec.score_users_projected(dataset, users)
    assert scores.shape == (4, dataset.num_items + 1)
    assert counter.count == 0


def test_candidate_scores_wraps_duck_typed_scorers(dataset, model, monkeypatch):
    """Even a scorer that forgets no_grad() runs graph-free through
    candidate_scores (the satellite's audit guarantee)."""

    class NaiveScorer:
        def score_items(self, dataset, users, split="test"):
            # Deliberately no no_grad(): the wrapper must supply it.
            return model.score_items(dataset, users, split=split)

    counter = GraphNodeCounter(monkeypatch)
    users = dataset.evaluation_users("test")[:4]
    scores = candidate_scores(NaiveScorer(), dataset, users, split="test")
    assert scores.shape == (4, dataset.num_items + 1)
    assert counter.count == 0


def test_length_grouped_encode_builds_no_graph(dataset, model, monkeypatch):
    """Called in training mode, over several length groups of mixed
    widths (some with padding, some without)."""
    model.train()
    users = dataset.evaluation_users("test")[:70]
    sequences = [dataset.full_sequence(int(u), split="test") for u in users]
    counter = GraphNodeCounter(monkeypatch)
    representations = model.encode_sequences(sequences + [np.array([3, 4])])
    assert representations.shape == (71, model.config.dim)
    assert counter.count == 0
    assert model.training


def test_engine_recommend_builds_no_graph(dataset, model, monkeypatch):
    engine = RecommendationEngine(model, dataset)
    counter = GraphNodeCounter(monkeypatch)
    result = engine.recommend(user=int(dataset.evaluation_users("test")[0]), k=5)
    assert len(result.items) <= 5
    assert counter.count == 0, (
        f"RecommendationEngine.recommend created {counter.count} graph nodes"
    )


def test_engine_batch_recommend_builds_no_graph(dataset, model, monkeypatch):
    from repro.serve.requests import RecRequest

    engine = RecommendationEngine(model, dataset)
    counter = GraphNodeCounter(monkeypatch)
    users = dataset.evaluation_users("test")[:8]
    requests = [RecRequest(user=int(u), k=5) for u in users]
    results = engine.recommend_batch(requests)
    assert len(results) == len(requests)
    assert counter.count == 0
