"""SR-GNN extension baseline."""

import numpy as np
import pytest

from repro.eval.evaluator import evaluate_model
from repro.models.srgnn import SRGNN, SRGNNConfig, build_session_graph


def small_config(**overrides):
    base = dict(
        dim=16,
        propagation_steps=1,
        max_nodes=8,
        max_length=12,
        epochs=2,
        batch_size=128,
        seed=0,
    )
    base.update(overrides)
    return SRGNNConfig(**base)


class TestSessionGraph:
    def test_unique_nodes(self):
        nodes, __, __, last = build_session_graph(np.array([3, 5, 3, 7]), 8)
        real = nodes[nodes > 0]
        assert sorted(real.tolist()) == [3, 5, 7]
        assert len(set(real.tolist())) == 3

    def test_last_index_points_to_final_item(self):
        nodes, __, __, last = build_session_graph(np.array([3, 5, 3, 7]), 8)
        assert nodes[last] == 7

    def test_adjacency_encodes_transitions(self):
        nodes, a_in, a_out, __ = build_session_graph(np.array([1, 2, 3]), 4)
        index = {int(item): pos for pos, item in enumerate(nodes) if item > 0}
        assert a_out[index[1], index[2]] > 0
        assert a_out[index[2], index[3]] > 0
        assert a_out[index[1], index[3]] == 0.0
        # Incoming adjacency is the transpose direction.
        assert a_in[index[2], index[1]] > 0

    def test_out_rows_normalized(self):
        nodes, __, a_out, __ = build_session_graph(
            np.array([1, 2, 1, 3, 1, 2]), 6
        )
        sums = a_out.sum(axis=1)
        for row in sums:
            assert row == pytest.approx(0.0) or row == pytest.approx(1.0)

    def test_node_budget_keeps_recent(self):
        sequence = np.arange(1, 11)  # 10 unique items
        nodes, __, __, last = build_session_graph(sequence, 4)
        real = set(nodes[nodes > 0].tolist())
        assert real == {7, 8, 9, 10}
        assert nodes[last] == 10

    def test_empty_sequence(self):
        nodes, a_in, a_out, last = build_session_graph(
            np.array([], dtype=np.int64), 4
        )
        assert (nodes == 0).all()
        assert last == 0

    def test_repeated_item_single_node(self):
        nodes, __, __, __ = build_session_graph(np.array([5, 5, 5]), 4)
        assert (nodes > 0).sum() == 1


class TestSRGNN:
    def test_session_representation_shape(self, tiny_dataset):
        model = SRGNN(tiny_dataset, small_config())
        sequences = [s for s in tiny_dataset.train_sequences[:6]]
        nodes, a_in, a_out, last = model._batch_graphs(sequences)
        session = model._session_representation(nodes, a_in, a_out, last)
        assert session.shape == (6, 16)

    def test_loss_decreases(self, tiny_dataset):
        model = SRGNN(tiny_dataset, small_config(epochs=3))
        history = model.fit(tiny_dataset)
        assert history.losses[-1] < history.losses[0]

    def test_score_shape(self, tiny_dataset):
        model = SRGNN(tiny_dataset, small_config())
        model.fit(tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:4]
        scores = model.score_items(tiny_dataset, users)
        assert scores.shape == (4, tiny_dataset.num_items + 1)

    def test_beats_chance(self, tiny_dataset):
        model = SRGNN(tiny_dataset, small_config(epochs=4))
        model.fit(tiny_dataset)
        result = evaluate_model(model, tiny_dataset)
        chance = 10.0 / tiny_dataset.num_items
        assert result["HR@10"] > 2 * chance

    def test_gradients_reach_all_parameters(self, tiny_dataset):
        model = SRGNN(tiny_dataset, small_config())
        sequences = tiny_dataset.train_sequences[:8]
        nodes, a_in, a_out, last = model._batch_graphs(sequences)
        session = model._session_representation(nodes, a_in, a_out, last)
        session.sum().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, name

    def test_transition_sensitivity(self, tiny_dataset):
        """Same item multiset, different transitions → different session
        representation (the graph structure matters)."""
        model = SRGNN(tiny_dataset, small_config())
        model.eval()
        from repro.nn.tensor import no_grad

        a = [np.array([1, 2, 3, 4])]
        b = [np.array([1, 3, 2, 4])]
        with no_grad():
            ra = model._session_representation(*model._batch_graphs(a)).data
            rb = model._session_representation(*model._batch_graphs(b)).data
        assert not np.allclose(ra, rb)

    def test_deterministic(self, tiny_dataset):
        def run():
            model = SRGNN(tiny_dataset, small_config(epochs=1))
            model.fit(tiny_dataset)
            return model.score_items(
                tiny_dataset, tiny_dataset.evaluation_users("test")[:2]
            )

        np.testing.assert_array_equal(run(), run())
