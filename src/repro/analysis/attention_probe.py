"""Attention interpretability probes.

Extract post-softmax attention maps from a trained SASRec-family
encoder and summarize *where the user representation looks*: how much
weight the final (representation) position puts on each relative
offset into the past, and how concentrated that attention is.
"""

from __future__ import annotations

import numpy as np

from repro.data.loaders import pad_left
from repro.data.preprocessing import SequenceDataset
from repro.nn.tensor import no_grad


def attention_maps(encoder, item_ids: np.ndarray) -> list[np.ndarray]:
    """Per-layer attention probabilities for a batch of sequences.

    Re-runs the encoder's forward pass layer by layer with
    ``return_probs=True``; returns one ``(batch, heads, T, T)`` array
    per Transformer layer.  Dropout is bypassed (eval mode is forced).
    ``item_ids`` must be ``encoder.max_length`` wide, as for the encoder.
    """
    was_training = encoder.training
    encoder.eval()
    maps: list[np.ndarray] = []
    try:
        with no_grad():
            hidden, padding_mask = encoder.embed(item_ids)
            for layer in encoder.transformer.layers:
                attended, probs = layer.attention(
                    hidden,
                    causal=encoder.causal,
                    key_padding_mask=padding_mask,
                    return_probs=True,
                )
                maps.append(probs)
                hidden = layer.norm1(hidden + layer.dropout1(attended))
                transformed = layer.feed_forward(hidden)
                hidden = layer.norm2(hidden + layer.dropout2(transformed))
    finally:
        encoder.train(was_training)
    return maps


def recency_profile(
    model,
    dataset: SequenceDataset,
    users: np.ndarray,
    layer: int = -1,
    max_offsets: int = 10,
) -> np.ndarray:
    """Mean attention from the representation position to the recent past.

    Returns an array ``profile[k]`` = average attention weight the last
    position places on the item ``k`` steps back (k=0 is the last item
    itself), averaged over heads and users, using real (non-padding)
    positions only.  A recency-biased encoder shows a decaying profile.
    Histories are left-padded to the encoder's own ``max_length``.
    """
    max_length = model.encoder.max_length
    users = np.asarray(users)
    batch = np.zeros((len(users), max_length), dtype=np.int64)
    for row, user in enumerate(users):
        batch[row] = pad_left(dataset.full_sequence(int(user)), max_length)
    maps = attention_maps(model.encoder, batch)[layer]  # (B, h, T, T)
    last_row = maps[:, :, -1, :]  # attention from the final position
    profile = np.zeros(max_offsets)
    counts = np.zeros(max_offsets)
    for row in range(len(users)):
        real = batch[row] > 0
        for offset in range(max_offsets):
            position = max_length - 1 - offset
            if position < 0 or not real[position]:
                continue
            profile[offset] += last_row[row, :, position].mean()
            counts[offset] += 1
    valid = counts > 0
    profile[valid] /= counts[valid]
    return profile


def attention_entropy(maps: np.ndarray, padding_mask: np.ndarray) -> float:
    """Mean entropy (nats) of attention rows at real query positions.

    Low entropy = peaky attention (the model commits to few items);
    high entropy = diffuse attention.
    """
    maps = np.asarray(maps, dtype=np.float64)
    padding_mask = np.asarray(padding_mask, dtype=bool)
    batch, heads, length, __ = maps.shape
    entropies: list[float] = []
    safe = np.clip(maps, 1e-12, 1.0)
    row_entropy = -(safe * np.log(safe)).sum(axis=-1)  # (B, h, T)
    for row in range(batch):
        real = ~padding_mask[row]
        if real.any():
            entropies.append(float(row_entropy[row][:, real].mean()))
    if not entropies:
        raise ValueError("no real positions to measure")
    return float(np.mean(entropies))
