"""The paper's three stochastic sequence augmentations (§3.3).

* :class:`~repro.augment.crop.Crop` — keep a random contiguous
  sub-sequence of proportion ``eta`` (Eq. 4).
* :class:`~repro.augment.mask.Mask` — replace a random proportion
  ``gamma`` of items with the ``[mask]`` token (Eq. 5).
* :class:`~repro.augment.reorder.Reorder` — shuffle a random contiguous
  sub-sequence of proportion ``beta`` (Eq. 6).

:mod:`repro.augment.compose` provides the random-pair sampler used by
the contrastive framework (two operators drawn from the augmentation
set are applied to the same sequence to form a positive pair); with
``distinct=True`` it runs the RQ3 composition study (Figure 5).

Every operator transforms one unpadded sequence per call, as the paper
defines it; the contrastive loader applies the pair sampler row by row
(``docs/PERFORMANCE.md``).
"""

from repro.augment.base import Augmentation, Identity
from repro.augment.compose import PairSampler
from repro.augment.crop import Crop
from repro.augment.factory import make_operator, make_operator_set
from repro.augment.mask import Mask
from repro.augment.reorder import Reorder

__all__ = [
    "Augmentation",
    "Crop",
    "Identity",
    "Mask",
    "PairSampler",
    "Reorder",
    "make_operator",
    "make_operator_set",
]
