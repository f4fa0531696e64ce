"""The paper's primary contribution: contrastive learning for
sequential recommendation.

* :mod:`repro.core.contrastive` — the NT-Xent loss of Eq. (3): cosine
  similarity, temperature τ, in-batch negatives (2(N−1) per pair).
* :mod:`repro.core.projection` — the auxiliary linear projection
  ``g(·)`` of §3.2.3, used during contrastive training and discarded
  at fine-tuning time.
* :mod:`repro.core.cl4srec` — the CL4SRec model: a SASRec encoder
  trained with the contrastive objective (pre-train → fine-tune as in
  the CP4Rec preprint, or jointly as in the ICDE camera-ready).
* :mod:`repro.core.trainer` — the contrastive and joint entry points of
  the one training loop.
"""

from repro.core.cl4srec import CL4SRec, CL4SRecConfig
from repro.core.contrastive import info_nce_loss, nt_xent
from repro.core.momentum import MoCoCL4SRec, MoCoConfig, NegativeQueue
from repro.core.projection import ProjectionHead
from repro.core.trainer import PretrainHistory, pretrain_contrastive, train_joint

__all__ = [
    "CL4SRec",
    "CL4SRecConfig",
    "MoCoCL4SRec",
    "MoCoConfig",
    "NegativeQueue",
    "PretrainHistory",
    "ProjectionHead",
    "info_nce_loss",
    "nt_xent",
    "pretrain_contrastive",
    "train_joint",
]
