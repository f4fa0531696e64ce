"""Scale presets for the experiment harness.

The paper trains d=128 Transformers on a GPU; this reproduction runs a
numpy substrate on CPU, so experiments carry an
:class:`ExperimentScale` that shrinks the dataset and budget together.
Relative comparisons (who wins, by what factor) are stable across
scales because they derive from the generator's structure, not its
size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by every experiment runner.

    Attributes
    ----------
    dataset_scale:
        Fraction of the full synthetic population to generate.
    dim:
        Model dimensionality (paper: 128).
    max_length:
        Maximum sequence length T (paper: 50).
    epochs:
        Supervised epochs (paper: early stopping).
    pretrain_epochs:
        Contrastive pre-training epochs.
    batch_size:
        Mini-batch size (paper: 256).
    max_eval_users:
        Cap on evaluation users (None = all); keeps full-ranking
        evaluation affordable at larger scales.
    seed:
        Master seed threaded through data, init and sampling.
    """

    dataset_scale: float = 0.05
    dim: int = 48
    max_length: int = 30
    epochs: int = 6
    pretrain_epochs: int = 3
    batch_size: int = 128
    max_eval_users: int | None = 1000
    seed: int = 7

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        """Functional update."""
        return replace(self, **kwargs)


SMOKE_SCALE = ExperimentScale(
    dataset_scale=0.02,
    dim=32,
    max_length=20,
    epochs=2,
    pretrain_epochs=1,
    batch_size=128,
    max_eval_users=300,
)

BENCH_SCALE = ExperimentScale(
    dataset_scale=0.06,
    dim=48,
    max_length=30,
    epochs=8,
    pretrain_epochs=4,
    batch_size=128,
    max_eval_users=1200,
)

FULL_SCALE = ExperimentScale(
    dataset_scale=1.0,
    dim=128,
    max_length=50,
    epochs=50,
    pretrain_epochs=20,
    batch_size=256,
    max_eval_users=None,
)

#: The ``--preset`` names (CLI and :class:`repro.serve.config.ServeConfig`).
PRESETS = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "full": FULL_SCALE}
