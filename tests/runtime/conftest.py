"""Shared fixtures for the fault-tolerance suite.

A deliberately tiny CL4SRec (one layer, dim 16) over the session-scoped
tiny dataset: big enough that Adam moments, dropout and augmentation
randomness all matter for bit-exactness, small enough that a full
train/kill/resume cycle runs in a couple of seconds.
"""

import pytest

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.models.sasrec import SASRecConfig
from repro.models.training import TrainConfig


def tiny_cl4srec_config(
    mode: str = "joint", epochs: int = 4, pipeline: str = "reference"
) -> CL4SRecConfig:
    """A CL4SRec config that trains in seconds on the tiny dataset."""
    shared = {"epochs": epochs, "batch_size": 64, "pipeline": pipeline}
    return CL4SRecConfig(
        sasrec=SASRecConfig(
            dim=16,
            num_layers=1,
            num_heads=1,
            train=TrainConfig(max_length=50, **shared),
        ),
        mode=mode,
        pretrain=TrainConfig(**shared),
        joint=TrainConfig(**shared),
    )


@pytest.fixture()
def build_model(tiny_dataset):
    """Factory: identically-initialized tiny CL4SRec models on demand."""

    def factory(
        mode: str = "joint", epochs: int = 4, pipeline: str = "reference"
    ) -> CL4SRec:
        return CL4SRec(
            tiny_dataset,
            tiny_cl4srec_config(mode=mode, epochs=epochs, pipeline=pipeline),
        )

    return factory
