"""The paper's three stochastic sequence augmentations (§3.3).

* :class:`~repro.augment.crop.Crop` — keep a random contiguous
  sub-sequence of proportion ``eta`` (Eq. 4).
* :class:`~repro.augment.mask.Mask` — replace a random proportion
  ``gamma`` of items with the ``[mask]`` token (Eq. 5).
* :class:`~repro.augment.reorder.Reorder` — shuffle a random contiguous
  sub-sequence of proportion ``beta`` (Eq. 6).

:mod:`repro.augment.compose` provides the random-pair sampler used by
the contrastive framework (two operators drawn from the augmentation
set are applied to the same sequence to form a positive pair) and a
sequential ``Compose`` for the RQ3 composition study.

The operators above are the scalar *reference* implementations: one
unpadded sequence per call.  :mod:`repro.augment.batched` provides
their matrix-form counterparts over left-padded ``(B, T)`` batches —
the hot path of ``pipeline="vectorized"`` training (see
``docs/PERFORMANCE.md``) — property-tested to follow the same
per-row laws.
"""

from repro.augment.base import Augmentation, Identity
from repro.augment.batched import (
    BatchCompose,
    BatchCrop,
    BatchIdentity,
    BatchMask,
    BatchPairSampler,
    BatchReorder,
    BatchedAugmentation,
    batched_operator,
    spawn_stream,
)
from repro.augment.compose import Compose, PairSampler
from repro.augment.crop import Crop
from repro.augment.factory import make_operator, make_operator_set
from repro.augment.mask import Mask
from repro.augment.reorder import Reorder

__all__ = [
    "Augmentation",
    "BatchCompose",
    "BatchCrop",
    "BatchIdentity",
    "BatchMask",
    "BatchPairSampler",
    "BatchReorder",
    "BatchedAugmentation",
    "Compose",
    "Crop",
    "Identity",
    "Mask",
    "PairSampler",
    "Reorder",
    "batched_operator",
    "make_operator",
    "make_operator_set",
    "spawn_stream",
]
