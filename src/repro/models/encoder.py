"""The SASRec-style Transformer user-representation encoder (§3.4).

Shared between the :class:`repro.models.sasrec.SASRec` baseline and the
CL4SRec model — exactly as in the paper, where CL4SRec adopts the
SASRec architecture as its user representation model ``f(·)``.
"""

from __future__ import annotations

import numpy as np

from repro.data.loaders import pad_left
from repro.nn import init
from repro.nn.functional import merge_row_groups
from repro.nn.layers import Dropout, Embedding
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder, cut_mask, cut_masks

#: Rows per length group, in :meth:`SASRecEncoder.encode_sequences` and
#: in a grad-mode batch: small groups fit each width tightly, large ones
#: make fewer BLAS calls.  32 was fastest of 16/32/64/128
#: (docs/PERFORMANCE.md, compute core §5).
_GROUP_ROWS = 32


def _length_groups(lengths: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """``(rows, width)`` per length group: the row indices stably sorted
    by ``lengths`` and cut into groups of ``_GROUP_ROWS``, each with its
    longest length as its width (at least 1)."""
    order = np.argsort(lengths, kind="stable")
    groups = []
    for start in range(0, len(order), _GROUP_ROWS):
        rows = order[start : start + _GROUP_ROWS]
        groups.append((rows, max(1, int(lengths[rows[-1]]))))
    return groups


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

    def _full_width(self, item_ids: np.ndarray) -> np.ndarray:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        length = item_ids.shape[1]
        if length != self.max_length:
            raise ValueError(
                f"expected sequences of length {self.max_length}, got {length}"
            )
        return item_ids

    def _embed(
        self,
        item_ids: np.ndarray,
        first_position: int,
        dropout_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, np.ndarray]:
        """The input to the first block for a ``(B, w)`` batch whose
        columns sit at positions ``first_position .. first_position + w -
        1`` — the trailing ``w`` columns of a ``first_position + w`` wide
        batch: item + position embedding after dropout ``(B, w, d)``, and
        the ``(B, w)`` padding mask.

        The ``(w, d)`` block of position rows is sliced from the table
        and added by broadcast (no per-row gather, and its gradient is
        a batch sum, not a scatter).  The embedding dropout applies
        ``dropout_mask``, or draws one at ``(B, w, d)``.
        """
        last_position = first_position + item_ids.shape[1]
        positions = self.position_embedding.weight[first_position:last_position]
        hidden = self.item_embedding(item_ids) + positions
        return self.embedding_dropout(hidden, dropout_mask), item_ids == 0

    def _encode(self, item_ids: np.ndarray, last_row: bool) -> Tensor:
        """The body of :meth:`forward` (``(B, w, d)``) and, with
        ``last_row``, of :meth:`user_representation` (``(B, 1, d)``) for
        a left-padded ``(B, T)`` batch, ``w`` its longest history (≥ 1).

        The columns left of ``w`` hold padding in every row and are cut.
        Rows are then grouped by length as in :meth:`encode_sequences`:
        each group runs over its own trailing ``w_g`` columns, embedded
        at positions ``T - w_g .. T - 1``.  No real position attends to
        padding, and a padding position attends only to itself, so every
        kept position computes what it would in the ``T``-wide batch.

        Every dropout site draws once, in a single pass's order, at the
        batch's kept shape — ``(B, w, d)`` and ``(B, h, w, w)``, or the
        last row's ``(B, 1, d)`` and ``(B, h, 1, w)`` — and each group
        uses its slice, so grouping leaves the generator stream as it
        is.  A batch that fits in one group runs whole, in input order.
        """
        item_ids = self._full_width(item_ids)
        width = max(1, int(np.count_nonzero(item_ids, axis=1).max(initial=0)))
        kept = trailing_columns(item_ids, width, "item_ids")
        batch, dtype = kept.shape[0], self.item_embedding.weight.dtype
        embedding_mask = self.embedding_dropout.draw((batch, width, self.dim), dtype)
        block_masks = self.transformer.draw_masks(batch, width, last_row, dtype)

        # Each row's span from its first item: a group cut at its longest
        # span drops no item.
        real = kept != 0
        lengths = np.where(real.any(axis=1), width - real.argmax(axis=1), 0)
        groups = _length_groups(lengths)
        if len(groups) == 1:
            groups = [(slice(None), width)]
        run = self.transformer.last_row if last_row else self.transformer
        parts = []
        for rows, group_width in groups:
            hidden, padding_mask = self._embed(
                kept[rows, -group_width:],
                self.max_length - group_width,
                cut_mask(embedding_mask, rows, group_width),
            )
            parts.append(
                run(
                    hidden,
                    causal=self.causal,
                    key_padding_mask=padding_mask if padding_mask.any() else None,
                    masks=cut_masks(block_masks, rows, group_width),
                )
            )
        if len(parts) == 1:
            return parts[0]
        return merge_row_groups(
            parts, groups, (batch, 1 if last_row else width, self.dim)
        )

    def forward(self, item_ids: np.ndarray) -> Tensor:
        """Encode a left-padded batch ``(B, T)`` → hidden states ``(B, w,
        d)`` of its trailing ``w`` positions, ``w`` the batch's longest
        history (at least 1).

        Column ``j`` of the result is position ``T - w + j``; callers
        align per-position targets with :func:`trailing_columns`.  A
        column left of a row's length group width (:meth:`_encode`) is
        padding in that row and holds zeros.
        """
        return self._encode(item_ids, last_row=False)

    def user_representation(self, item_ids: np.ndarray) -> Tensor:
        """The last-position hidden state ``s_u`` (paper Eq. 13).

        Equals ``forward(item_ids)[:, -1, :]`` at floating-point
        tolerance with dropout off, but the final block computes only
        that row and draws only that row's dropout masks.
        """
        last = self._encode(item_ids, last_row=True)
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
        out = np.empty((len(sequences), self.dim), dtype=self.param_dtype())
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                for rows, width in _length_groups(lengths):
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
