"""Alignment / uniformity and embedding diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import ContrastiveBatchLoader
from repro.data.preprocessing import SequenceDataset
from repro.nn.tensor import no_grad


def _normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def alignment(view_a: np.ndarray, view_b: np.ndarray, alpha: float = 2.0) -> float:
    """Wang & Isola alignment loss: E‖f(x) − f(x⁺)‖^α on the sphere.

    Lower is better — positive pairs should map close together.
    """
    a = _normalize(np.asarray(view_a, dtype=np.float64))
    b = _normalize(np.asarray(view_b, dtype=np.float64))
    return float((np.linalg.norm(a - b, axis=-1) ** alpha).mean())


def uniformity(representations: np.ndarray, t: float = 2.0) -> float:
    """Wang & Isola uniformity loss: log E exp(−t‖f(x) − f(y)‖²).

    Lower is better — representations should spread over the sphere.
    """
    z = _normalize(np.asarray(representations, dtype=np.float64))
    if len(z) < 2:
        raise ValueError("uniformity needs at least 2 representations")
    squared_distances = (
        np.sum(z**2, axis=1)[:, None]
        + np.sum(z**2, axis=1)[None, :]
        - 2.0 * z @ z.T
    )
    mask = ~np.eye(len(z), dtype=bool)
    return float(np.log(np.exp(-t * squared_distances[mask]).mean()))


def representation_quality(
    model,
    dataset: SequenceDataset,
    max_length: int,
    num_users: int = 256,
    seed: int = 0,
) -> dict[str, float]:
    """Alignment & uniformity of a model's user representations.

    Uses the model's own pair sampler (``model.pair_sampler``) to
    produce the positive views, mirroring the training distribution.
    The encoder runs in eval mode (restored afterwards), so the numbers
    carry no dropout noise and the model's generator does not advance.
    """
    rng = np.random.default_rng(seed)
    loader = ContrastiveBatchLoader(
        dataset, model.pair_sampler, max_length, num_users, rng
    )
    batch = next(iter(loader.epoch()))
    was_training = model.training
    model.eval()
    with no_grad():
        rep_a = model.encoder.user_representation(batch.view_a).data
        rep_b = model.encoder.user_representation(batch.view_b).data
    if was_training:
        model.train()
    return {
        "alignment": alignment(rep_a, rep_b),
        "uniformity": uniformity(np.concatenate([rep_a, rep_b], axis=0)),
    }


def embedding_statistics(table: np.ndarray) -> dict[str, float]:
    """Norm and anisotropy diagnostics for an embedding table.

    Anisotropy is the mean pairwise cosine similarity of a sample of
    rows — values near 1 indicate a collapsed (cone-shaped) space.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or len(table) < 2:
        raise ValueError("expected a (rows, dim) table with >= 2 rows")
    norms = np.linalg.norm(table, axis=1)
    sample = table[: min(len(table), 512)]
    unit = _normalize(sample)
    cosine = unit @ unit.T
    mask = ~np.eye(len(unit), dtype=bool)
    return {
        "mean_norm": float(norms.mean()),
        "std_norm": float(norms.std()),
        "anisotropy": float(cosine[mask].mean()),
    }


@dataclass
class ConvergenceTracker:
    """Record validation curves to compare convergence speed.

    The paper observes that pre-training "can warm-up the following
    procedure" — a pre-trained model should hit any fixed performance
    bar in fewer fine-tuning epochs.
    """

    curves: dict[str, list[float]] = field(default_factory=dict)

    def record(self, label: str, score: float) -> None:
        self.curves.setdefault(label, []).append(float(score))

    def epochs_to_reach(self, label: str, bar: float) -> int | None:
        """First (1-based) epoch at which ``label`` reached ``bar``."""
        for epoch, score in enumerate(self.curves.get(label, []), start=1):
            if score >= bar:
                return epoch
        return None

    def faster(self, candidate: str, baseline: str, bar: float) -> bool:
        """Did ``candidate`` reach ``bar`` in fewer epochs than ``baseline``?"""
        a = self.epochs_to_reach(candidate, bar)
        b = self.epochs_to_reach(baseline, bar)
        if a is None:
            return False
        if b is None:
            return True
        return a < b
