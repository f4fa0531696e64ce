"""SASRec warm-started from BPR-MF item embeddings (paper §4.1.3).

The paper's alternative pre-training strategy baseline: train BPR-MF,
copy its item embeddings into the SASRec embedding table, then run the
usual supervised fine-tuning.  The paper observes this converges faster
but does not beat SASRec once converged — unlike contrastive
pre-training.
"""

from __future__ import annotations

from repro.data.preprocessing import SequenceDataset
from repro.models.bprmf import BPRMF, BPRMFConfig
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainingHistory


class SASRecBPR(SASRec):
    """SASRec whose item embeddings are initialized by BPR-MF."""

    name = "SASRec-BPR"

    def __init__(
        self,
        dataset: SequenceDataset,
        config: SASRecConfig | None = None,
        bpr_config: BPRMFConfig | None = None,
    ) -> None:
        config = config if config is not None else SASRecConfig()
        if bpr_config is None:
            bpr_config = BPRMFConfig(dim=config.dim)
            bpr_config.train.seed = config.train.seed
        if bpr_config.dim != config.dim:
            raise ValueError(
                f"BPR-MF dim ({bpr_config.dim}) must match SASRec dim ({config.dim})"
            )
        super().__init__(dataset, config)
        self.bpr_config = bpr_config
        self._pretrained = False

    def pretrain(self, dataset: SequenceDataset) -> BPRMF:
        """Train BPR-MF and copy its item embeddings into the encoder."""
        bpr = BPRMF(dataset, self.bpr_config)
        bpr.fit(dataset)
        vectors = bpr.item_embeddings()  # (num_items + 1, dim)
        table = self.encoder.item_embedding.weight.data
        table[: vectors.shape[0], :] = vectors
        self._pretrained = True
        return bpr

    def fit(self, dataset: SequenceDataset, **overrides) -> TrainingHistory:
        """Warm-start from BPR-MF (if not already done), then fine-tune."""
        if not self._pretrained:
            self.pretrain(dataset)
        return super().fit(dataset, **overrides)
