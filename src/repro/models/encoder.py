"""The SASRec-style Transformer user-representation encoder (§3.4).

Shared between the :class:`repro.models.sasrec.SASRec` baseline and the
CL4SRec model — exactly as in the paper, where CL4SRec adopts the
SASRec architecture as its user representation model ``f(·)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Dropout, Embedding
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoder


class SASRecEncoder(Module):
    """Item+position embedding → L causal Transformer blocks.

    Parameters
    ----------
    vocab_size:
        Item-embedding rows: ``num_items + 2`` (padding 0 and the
        ``[mask]`` token at ``num_items + 1``).
    max_length:
        Maximum sequence length ``T`` (the paper uses 50); longer
        histories are left-truncated (Eq. 7).
    dim:
        Embedding / model dimensionality ``d``.
    num_layers, num_heads:
        Transformer depth and heads (the paper uses L=2, h=2).
    dropout:
        Dropout rate on embeddings and inside the blocks.
    rng:
        Generator for initialization and dropout.
    """

    def __init__(
        self,
        vocab_size: int,
        max_length: int,
        dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        dropout: float = 0.2,
        rng: np.random.Generator | None = None,
        causal: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.max_length = max_length
        self.dim = dim
        self.causal = causal

        self.item_embedding = Embedding(vocab_size, dim, rng=rng)
        self.position_embedding = Embedding(max_length, dim, rng=rng)
        # Paper §4.1.4: truncated normal in [-0.01, 0.01].
        self.item_embedding.weight = Parameter(
            init.truncated_normal((vocab_size, dim), rng)
        )
        self.position_embedding.weight = Parameter(
            init.truncated_normal((max_length, dim), rng)
        )
        self.embedding_dropout = Dropout(dropout, rng=rng)
        self.transformer = TransformerEncoder(
            num_layers, dim, num_heads, dropout=dropout, rng=rng
        )

    def embed(self, item_ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """The input to the first block for a left-padded batch ``(B, T)``:
        item + position embedding after dropout ``(B, T, d)``, and the
        ``(B, T)`` padding mask."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        batch, length = item_ids.shape
        if length != self.max_length:
            raise ValueError(
                f"expected sequences of length {self.max_length}, got {length}"
            )
        positions = np.broadcast_to(np.arange(length), (batch, length))
        hidden = self.item_embedding(item_ids) + self.position_embedding(positions)
        return self.embedding_dropout(hidden), item_ids == 0

    def forward(self, item_ids: np.ndarray) -> Tensor:
        """Encode a left-padded batch ``(B, T)`` → hidden states ``(B, T, d)``."""
        hidden, padding_mask = self.embed(item_ids)
        return self.transformer(
            hidden, causal=self.causal, key_padding_mask=padding_mask
        )

    def user_representation(self, item_ids: np.ndarray) -> Tensor:
        """The last-position hidden state ``s_u`` (paper Eq. 13).

        Equals ``forward(item_ids)[:, -1, :]`` at floating-point
        tolerance and draws the same dropout masks, but the final block
        computes only that row.
        """
        hidden, padding_mask = self.embed(item_ids)
        last = self.transformer.last_row(
            hidden, causal=self.causal, key_padding_mask=padding_mask
        )
        return last.reshape(last.shape[0], self.dim)

    def score_all_items(self, representation: Tensor, num_items: int) -> Tensor:
        """Scores for item ids ``0..num_items`` via shared embeddings.

        Column 0 (padding) is included so the result aligns with the
        evaluator's ``(batch, num_items + 1)`` contract.
        """
        item_vectors = self.item_embedding.weight[: num_items + 1, :]
        return representation.matmul(item_vectors.transpose())
