"""A model's weights as one servable checkpoint archive.

Resuming *training* needs far more than the weights (optimizer moments,
schedule, RNG streams, history); that is :mod:`repro.runtime.resume`'s
archive.  :func:`save_checkpoint` writes just the ``model/<param>``
section, through the one artifact writer
(:func:`repro.nn.serialization.write_archive`), so serving
(:func:`repro.runtime.checkpointing.load_model_state`) reads it like
any training checkpoint.
"""

from __future__ import annotations

import os

from repro.nn.module import Module
from repro.nn.serialization import write_archive


def save_checkpoint(path: str | os.PathLike, model: Module) -> None:
    """Write ``model``'s parameters to ``path`` as ``model/<param>``."""
    write_archive(
        path, {f"model/{name}": values for name, values in model.state_dict().items()}
    )
