"""The SASRec-style Transformer user-representation encoder (§3.4).

Shared between the :class:`repro.models.sasrec.SASRec` baseline and the
CL4SRec model — exactly as in the paper, where CL4SRec adopts the
SASRec architecture as its user representation model ``f(·)``.
"""

from __future__ import annotations

import numpy as np

from repro.data.loaders import pad_left
from repro.nn import init
from repro.nn.layers import Dropout, Embedding
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder

#: Rows per length group in :meth:`SASRecEncoder.encode_sequences`:
#: small groups fit each width tightly, large ones make fewer BLAS calls.
#: 32 was fastest of 16/32/64/128 (docs/PERFORMANCE.md, compute core §5).
_GROUP_ROWS = 32


def trailing_columns(array: np.ndarray, width: int, name: str) -> np.ndarray:
    """``array[:, -width:]``: the columns of a left-padded ``(B, T)`` batch
    that a trimmed forward keeps.

    Raises ``ValueError`` naming the first cut column where ``array`` is
    non-zero — an item, target or loss weight there would be dropped,
    so the batch is not left-padded.
    """
    array = np.asarray(array)
    cut = array.shape[1] - width
    dropped = np.flatnonzero(array[:, :cut].any(axis=0))
    if dropped.size:
        raise ValueError(
            f"{name} is non-zero in column {dropped[0]}, left of the batch's "
            f"last {width} columns, which hold its longest history: the "
            "batch is not left-padded"
        )
    return array[:, cut:]


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
        return self._embed(self._full_width(item_ids), first_position=0)

    def _full_width(self, item_ids: np.ndarray) -> np.ndarray:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        length = item_ids.shape[1]
        if length != self.max_length:
            raise ValueError(
                f"expected sequences of length {self.max_length}, got {length}"
            )
        return item_ids

    def _embed(
        self, item_ids: np.ndarray, first_position: int
    ) -> tuple[Tensor, np.ndarray]:
        """:meth:`embed` for a ``(B, w)`` batch whose columns sit at
        positions ``first_position .. first_position + w - 1`` — the
        trailing ``w`` columns of a ``first_position + w`` wide batch.

        The ``(w, d)`` block of position rows is sliced from the table
        and added by broadcast (no per-row gather, and its gradient is
        a batch sum, not a scatter); the embedding dropout mask is drawn
        at ``(B, w, d)``.
        """
        last_position = first_position + item_ids.shape[1]
        positions = self.position_embedding.weight[first_position:last_position]
        hidden = self.item_embedding(item_ids) + positions
        return self.embedding_dropout(hidden), item_ids == 0

    def _embed_trailing(
        self, item_ids: np.ndarray
    ) -> tuple[Tensor, np.ndarray | None]:
        """The first block's input for the trailing ``w`` columns of a
        left-padded ``(B, T)`` batch, ``w`` its longest history (≥ 1),
        and their padding mask (``None`` when nothing is padded).

        The columns cut hold padding in every row, and no real position
        attends to padding, so every kept position computes what it
        would in the ``T``-wide batch.  Dropout masks are drawn at the
        kept shape, so a training step's generator stream depends on
        ``w``.
        """
        item_ids = self._full_width(item_ids)
        width = max(1, int(np.count_nonzero(item_ids, axis=1).max(initial=0)))
        kept = trailing_columns(item_ids, width, "item_ids")
        hidden, padding_mask = self._embed(kept, self.max_length - width)
        return hidden, padding_mask if padding_mask.any() else None

    def forward(self, item_ids: np.ndarray) -> Tensor:
        """Encode a left-padded batch ``(B, T)`` → hidden states ``(B, w,
        d)`` of its trailing ``w`` positions, ``w`` the batch's longest
        history (at least 1).

        Column ``j`` of the result is position ``T - w + j``; callers
        align per-position targets with :func:`trailing_columns`.
        """
        hidden, padding_mask = self._embed_trailing(item_ids)
        return self.transformer(
            hidden, causal=self.causal, key_padding_mask=padding_mask
        )

    def user_representation(self, item_ids: np.ndarray) -> Tensor:
        """The last-position hidden state ``s_u`` (paper Eq. 13).

        Equals ``forward(item_ids)[:, -1, :]`` at floating-point
        tolerance with dropout off, but the final block computes only
        that row and draws only that row's dropout masks.
        """
        hidden, padding_mask = self._embed_trailing(item_ids)
        last = self.transformer.last_row(
            hidden, causal=self.causal, key_padding_mask=padding_mask
        )
        return last.reshape(last.shape[0], self.dim)

    def encode_sequences(self, sequences: list[np.ndarray]) -> np.ndarray:
        """No-grad user representations ``(len(sequences), d)`` of raw
        histories, in eval mode (the previous mode is restored).

        Equals ``user_representation`` of the histories left-padded to
        ``T`` at floating-point tolerance, but encodes only the tokens
        that exist.  Histories are stably sorted by length (capped at
        ``T``, Eq. 7) and cut into groups of ``_GROUP_ROWS`` rows; each
        group is padded only to its own longest history and embedded at
        positions ``T - w .. T - 1``, so every real token keeps its
        position.  A real row never attends to a padded key (the
        ``-1e9`` fill is exactly 0 after ``exp``), and a history with no
        items attends only to its own last slot, which sits at ``T - 1``
        at any width.  A group with no padding passes no padding mask.
        """
        t = self.max_length
        lengths = np.array([min(len(s), t) for s in sequences], dtype=np.int64)
        order = np.argsort(lengths, kind="stable")
        out = np.empty((len(sequences), self.dim), dtype=self.param_dtype())
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                for start in range(0, len(order), _GROUP_ROWS):
                    rows = order[start : start + _GROUP_ROWS]
                    width = max(1, int(lengths[rows[-1]]))
                    batch = np.stack([pad_left(sequences[r], width) for r in rows])
                    hidden, padding_mask = self._embed(batch, t - width)
                    last = self.transformer.last_row(
                        hidden,
                        causal=self.causal,
                        key_padding_mask=padding_mask if padding_mask.any() else None,
                    )
                    out[rows] = last.data.reshape(len(rows), self.dim)
        finally:
            if was_training:
                self.train()
        return out

    def score_all_items(self, representation: Tensor, num_items: int) -> Tensor:
        """Scores for item ids ``0..num_items`` via shared embeddings.

        Column 0 (padding) is included so the result aligns with the
        evaluator's ``(batch, num_items + 1)`` contract.
        """
        item_vectors = self.item_embedding.weight[: num_items + 1, :]
        return representation.matmul(item_vectors.transpose())
