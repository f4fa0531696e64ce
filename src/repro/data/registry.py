"""Named dataset configurations mirroring the paper's Table 1.

Each :class:`DatasetSpec` holds the raw generator parameters that —
after 5-core filtering — land near the paper's published statistics at
``scale=1.0``.  The ``scale`` knob shrinks users and items together so
tests and benchmarks can run at laptop-friendly sizes while keeping the
structural properties (popularity skew, interest persistence) intact.

Dataset-flavour notes (matching observations in the paper):

* **beauty** has the most strictly ordered sequences (high interest
  persistence) — the paper finds the reorder augmentation helps *less*
  there (Figure 4).
* **sports / toys / yelp** get lower persistence, i.e. more flexible
  order, where the paper finds large reorder rates keep helping.
* **yelp** has the longest average sequences (10.4) and the most users.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log


@dataclass(frozen=True)
class DatasetSpec:
    """Raw generator parameters for one named dataset."""

    name: str
    raw_users: int
    raw_items: int
    mean_length: float
    length_dispersion: float
    interest_persistence: float
    ring_affinity: float
    interest_sparsity: float
    popularity_exponent: float
    items_per_interest: int = 260
    paper_users: int = 0
    paper_items: int = 0
    paper_actions: int = 0
    paper_avg_length: float = 0.0

    def config(self, scale: float = 1.0, seed: int = 0) -> SyntheticConfig:
        """Materialize a :class:`SyntheticConfig` at the given scale."""
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        num_users = max(50, int(round(self.raw_users * scale)))
        num_items = max(40, int(round(self.raw_items * scale)))
        num_interests = max(6, num_items // self.items_per_interest)
        return SyntheticConfig(
            num_users=num_users,
            num_items=num_items,
            num_interests=num_interests,
            interest_sparsity=self.interest_sparsity,
            popularity_exponent=self.popularity_exponent,
            mean_length=self.mean_length,
            length_dispersion=self.length_dispersion,
            interest_persistence=self.interest_persistence,
            ring_affinity=self.ring_affinity,
            seed=seed,
        )


DATASETS: dict[str, DatasetSpec] = {
    "beauty": DatasetSpec(
        name="beauty",
        raw_users=30100,
        raw_items=20500,
        mean_length=8.6,
        length_dispersion=1.6,
        interest_persistence=0.85,
        ring_affinity=0.7,
        interest_sparsity=0.12,
        popularity_exponent=0.85,
        paper_users=22363,
        paper_items=12101,
        paper_actions=198502,
        paper_avg_length=8.8,
    ),
    "sports": DatasetSpec(
        name="sports",
        raw_users=30100,
        raw_items=28000,
        mean_length=11.4,
        length_dispersion=1.6,
        interest_persistence=0.62,
        ring_affinity=0.55,
        interest_sparsity=0.10,
        popularity_exponent=0.8,
        paper_users=25598,
        paper_items=18357,
        paper_actions=296337,
        paper_avg_length=8.3,
    ),
    "toys": DatasetSpec(
        name="toys",
        raw_users=27800,
        raw_items=27000,
        mean_length=8.4,
        length_dispersion=1.6,
        interest_persistence=0.66,
        ring_affinity=0.6,
        interest_sparsity=0.12,
        popularity_exponent=0.85,
        paper_users=19412,
        paper_items=11924,
        paper_actions=167597,
        paper_avg_length=8.6,
    ),
    "yelp": DatasetSpec(
        name="yelp",
        raw_users=36500,
        raw_items=32500,
        mean_length=10.4,
        length_dispersion=1.8,
        interest_persistence=0.55,
        ring_affinity=0.5,
        interest_sparsity=0.10,
        popularity_exponent=0.8,
        paper_users=30431,
        paper_items=20033,
        paper_actions=316354,
        paper_avg_length=10.4,
    ),
}


def dataset_names() -> list[str]:
    """Names of all registered datasets, in paper order."""
    return list(DATASETS)


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> SequenceDataset:
    """Generate + preprocess a named dataset.

    Parameters
    ----------
    name:
        One of ``beauty``, ``sports``, ``toys``, ``yelp``.
    scale:
        Fraction of the full-size user/item population to generate.
    seed:
        Simulator seed (deterministic output).

    The log is 5-core filtered, as in the paper.
    """
    if name not in DATASETS:
        raise KeyError(f"unknown dataset '{name}'; available: {dataset_names()}")
    spec = DATASETS[name]
    log = generate_log(spec.config(scale=scale, seed=seed))
    return SequenceDataset.from_log(log, name=spec.name)
