"""Baseline recommenders from the paper's §4.1.3.

* :class:`~repro.models.pop.Pop` — most-popular, non-personalized.
* :class:`~repro.models.bprmf.BPRMF` — matrix factorization with the
  pairwise BPR loss.
* :class:`~repro.models.ncf.NCF` — neural collaborative filtering
  (GMF + MLP fusion).
* :class:`~repro.models.gru4rec.GRU4Rec` — GRU sequence model.
* :class:`~repro.models.sasrec.SASRec` — self-attentive sequential
  recommendation (also the user-representation encoder of CL4SRec).
* :class:`~repro.models.sasrec_bpr.SASRecBPR` — SASRec whose item
  embeddings are initialized from a trained BPR-MF model.
"""

from repro.models.base import Recommender
from repro.models.bert4rec import BERT4Rec, BERT4RecConfig
from repro.models.bprmf import BPRMF, BPRMFConfig
from repro.models.caser import Caser, CaserConfig
from repro.models.encoder import SASRecEncoder
from repro.models.fpmc import FPMC, FPMCConfig
from repro.models.gru4rec import GRU4Rec, GRU4RecConfig
from repro.models.losses import bpr_loss, masked_next_item_bce
from repro.models.ncf import NCF, NCFConfig
from repro.models.pop import Pop
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.sasrec_bpr import SASRecBPR
from repro.models.training import TrainConfig, TrainingHistory, train_next_item_model

# Imported last: the registry pulls in repro.core (which itself imports
# the model modules above).
from repro.models.registry import (  # noqa: E402
    EXTENSION_MODEL_NAMES,
    MODEL_NAMES,
    available_models,
    build_model,
    register_model,
)

__all__ = [
    "BERT4Rec",
    "BERT4RecConfig",
    "BPRMF",
    "BPRMFConfig",
    "Caser",
    "CaserConfig",
    "EXTENSION_MODEL_NAMES",
    "FPMC",
    "FPMCConfig",
    "GRU4Rec",
    "GRU4RecConfig",
    "MODEL_NAMES",
    "NCF",
    "NCFConfig",
    "Pop",
    "Recommender",
    "SASRec",
    "SASRecBPR",
    "SASRecConfig",
    "SASRecEncoder",
    "TrainConfig",
    "TrainingHistory",
    "available_models",
    "bpr_loss",
    "build_model",
    "masked_next_item_bce",
    "register_model",
    "train_next_item_model",
]
