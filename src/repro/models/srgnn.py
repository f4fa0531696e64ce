"""SR-GNN extension baseline (Wu et al., AAAI 2019).

Session-based Recommendation with Graph Neural Networks — the paper's
related work cites the GNN line of sequential recommenders (Guo et
al.; Wu et al.).  Each user sequence becomes a small directed graph
over its *unique* items; a gated graph neural network propagates
information along observed transitions, and a soft-attention readout
(anchored on the last item) produces the session representation.

The implementation is fully batched on the numpy substrate: per-user
node tables and in/out adjacency matrices are padded to a common node
budget, and the gated propagation is a pair of batched matmuls plus a
GRU-style update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import NegativeSampler
from repro.data.preprocessing import SequenceDataset
from repro.models.base import SequenceRecommender
from repro.nn import functional as F
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.nn.optim import Adam, GradientClipper
from repro.nn.tensor import Tensor, concat, no_grad


@dataclass
class SRGNNConfig:
    """Architecture + training hyper-parameters."""

    dim: int = 32
    propagation_steps: int = 1
    max_nodes: int = 12  # unique items per session graph (paper sessions are short)
    max_length: int = 20  # last-N items considered per user
    epochs: int = 8
    batch_size: int = 128
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0


@dataclass
class SRGNNHistory:
    """Per-epoch training losses."""

    losses: list[float] = field(default_factory=list)


def build_session_graph(
    sequence: np.ndarray, max_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Node table + normalized in/out adjacency for one sequence.

    Returns ``(nodes, a_in, a_out, last_index)`` where ``nodes`` is the
    padded array of unique item ids (0 = padding), ``a_in[i, j]`` is
    the normalized weight of edge ``j → i``, and ``last_index`` is the
    node position of the sequence's final item.  Sequences with more
    unique items than ``max_nodes`` keep their most recent items.
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    if len(sequence) == 0:
        return (
            np.zeros(max_nodes, dtype=np.int64),
            np.zeros((max_nodes, max_nodes)),
            np.zeros((max_nodes, max_nodes)),
            0,
        )
    # Keep the most recent occurrences: walk backwards, then restore order.
    unique_recent: list[int] = []
    for item in reversed(sequence):
        if int(item) not in unique_recent:
            unique_recent.append(int(item))
        if len(unique_recent) == max_nodes:
            break
    kept = set(unique_recent)
    order: list[int] = []
    for item in sequence:
        if int(item) in kept and int(item) not in order:
            order.append(int(item))
    index_of = {item: position for position, item in enumerate(order)}

    nodes = np.zeros(max_nodes, dtype=np.int64)
    nodes[: len(order)] = order
    adjacency_out = np.zeros((max_nodes, max_nodes), dtype=np.float64)
    for left, right in zip(sequence[:-1], sequence[1:]):
        left, right = int(left), int(right)
        if left in index_of and right in index_of:
            adjacency_out[index_of[left], index_of[right]] += 1.0
    # Row-normalize outgoing edges; incoming is the transpose,
    # normalized over its own rows (per SR-GNN).
    out_degree = adjacency_out.sum(axis=1, keepdims=True)
    a_out = np.divide(
        adjacency_out, out_degree, out=np.zeros_like(adjacency_out), where=out_degree > 0
    )
    incoming = adjacency_out.T
    in_degree = incoming.sum(axis=1, keepdims=True)
    a_in = np.divide(
        incoming, in_degree, out=np.zeros_like(incoming), where=in_degree > 0
    )
    last_index = index_of[int(sequence[-1])]
    return nodes, a_in, a_out, last_index


class SRGNN(Module, SequenceRecommender):
    """Gated-graph session recommender."""

    name = "SR-GNN"

    def __init__(
        self, dataset: SequenceDataset, config: SRGNNConfig | None = None
    ) -> None:
        super().__init__()
        self.config = config if config is not None else SRGNNConfig()
        rng = np.random.default_rng(self.config.seed)
        d = self.config.dim
        self.item_embedding = Embedding(dataset.vocab_size, d, rng=rng)
        # Gated propagation parameters.
        self.in_proj = Linear(d, d, rng=rng)
        self.out_proj = Linear(d, d, rng=rng)
        self.gate_input = Linear(2 * d, 3 * d, rng=rng)
        self.gate_hidden = Linear(d, 3 * d, rng=rng)
        # Attention readout.
        self.attn_last = Linear(d, d, rng=rng)
        self.attn_node = Linear(d, d, rng=rng)
        self.attn_score = Linear(d, 1, bias=False, rng=rng)
        self.fuse = Linear(2 * d, d, rng=rng)
        self._rng = rng

    # ------------------------------------------------------------------
    # Graph batching
    # ------------------------------------------------------------------
    def _batch_graphs(
        self, sequences: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = self.config.max_nodes
        nodes = np.zeros((len(sequences), n), dtype=np.int64)
        a_in = np.zeros((len(sequences), n, n), dtype=np.float64)
        a_out = np.zeros((len(sequences), n, n), dtype=np.float64)
        last = np.zeros(len(sequences), dtype=np.int64)
        for row, sequence in enumerate(sequences):
            trimmed = np.asarray(sequence)[-self.config.max_length :]
            nodes[row], a_in[row], a_out[row], last[row] = build_session_graph(
                trimmed, n
            )
        return nodes, a_in, a_out, last

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _session_representation(
        self,
        nodes: np.ndarray,
        a_in: np.ndarray,
        a_out: np.ndarray,
        last: np.ndarray,
    ) -> Tensor:
        batch, n = nodes.shape
        d = self.config.dim
        hidden = self.item_embedding(nodes)  # (B, N, d)
        dtype = hidden.data.dtype  # masks/adjacency follow the model precision
        real = (nodes > 0).astype(dtype)[:, :, None]  # node mask

        for __ in range(self.config.propagation_steps):
            inbound = Tensor(a_in.astype(dtype)).matmul(self.in_proj(hidden))
            outbound = Tensor(a_out.astype(dtype)).matmul(self.out_proj(hidden))
            message = concat([inbound, outbound], axis=-1)  # (B, N, 2d)
            gates_x = self.gate_input(message)
            gates_h = self.gate_hidden(hidden)
            reset = (gates_x[:, :, :d] + gates_h[:, :, :d]).sigmoid()
            update = (
                gates_x[:, :, d : 2 * d] + gates_h[:, :, d : 2 * d]
            ).sigmoid()
            candidate = (
                gates_x[:, :, 2 * d :] + reset * gates_h[:, :, 2 * d :]
            ).tanh()
            hidden = (1.0 - update) * candidate + update * hidden
            hidden = hidden * Tensor(real)  # keep padding nodes at zero

        # Attention readout anchored on the last item's node.
        rows = np.arange(batch)
        last_vec = hidden[rows, last, :]  # (B, d)
        energy = self.attn_score(
            (
                self.attn_last(last_vec).expand_dims(1)
                + self.attn_node(hidden)
            ).sigmoid()
        ).squeeze(-1)  # (B, N)
        energy = energy.masked_fill(nodes == 0, -1e9)
        weights = F.softmax(energy, axis=-1)
        global_vec = (weights.expand_dims(-1) * hidden).sum(axis=1)  # (B, d)
        return self.fuse(concat([global_vec, last_vec], axis=-1))

    # ------------------------------------------------------------------
    # Training / inference
    # ------------------------------------------------------------------
    def fit(self, dataset: SequenceDataset, **overrides) -> SRGNNHistory:
        config = self.config
        if overrides:
            config = SRGNNConfig(**{**config.__dict__, **overrides})
        rng = self._rng
        # Training events: (prefix, next item) with prefix length >= 1.
        prefixes: list[np.ndarray] = []
        targets: list[int] = []
        for sequence in dataset.train_sequences:
            for t in range(1, len(sequence)):
                prefixes.append(sequence[:t])
                targets.append(int(sequence[t]))
        if not prefixes:
            raise ValueError("dataset has no training transitions")
        targets_arr = np.asarray(targets, dtype=np.int64)
        sampler = NegativeSampler(dataset.num_items, rng)
        optimizer = Adam(self.parameters(), lr=config.learning_rate)
        clipper = GradientClipper(optimizer.params, config.clip_norm)
        history = SRGNNHistory()

        self.train()
        for __ in range(config.epochs):
            order = rng.permutation(len(prefixes))
            epoch_loss, batches = 0.0, 0
            for start in range(0, len(order), config.batch_size):
                index = order[start : start + config.batch_size]
                chunk = [prefixes[i] for i in index]
                nodes, a_in, a_out, last = self._batch_graphs(chunk)
                session = self._session_representation(nodes, a_in, a_out, last)
                positives = targets_arr[index]
                negatives = sampler.sample(positives)
                pos_logits = (session * self.item_embedding(positives)).sum(axis=-1)
                neg_logits = (session * self.item_embedding(negatives)).sum(axis=-1)
                loss = (F.softplus(-pos_logits) + F.softplus(neg_logits)).mean()
                optimizer.zero_grad()
                loss.backward()
                clipper.clip()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            history.losses.append(epoch_loss / max(1, batches))
        self.eval()
        return history

    def encode_sequences(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Session representations ``(len(sequences), d)`` from raw histories."""
        was_training = self.training
        self.eval()
        with no_grad():
            session = self._session_representation(
                *self._batch_graphs(sequences)
            ).data
        if was_training:
            self.train()
        return session

    def item_embedding_matrix(self, num_items: int) -> np.ndarray:
        """Scoring matrix ``(num_items + 1, d)`` — rows are item vectors."""
        return self.item_embedding.weight.data[: num_items + 1, :]
