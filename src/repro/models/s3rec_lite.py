"""S3-Rec-lite extension baseline (after Zhou et al., CIKM 2020).

The paper's introduction contrasts CL4SRec against self-supervised
methods that need *side information* — S3-Rec pre-trains with
attribute-based objectives (AAP/MAP) plus masked-item prediction.  This
lite adaptation implements the two objectives that fit the substrate
and our categorical attributes:

* **AAP (associated attribute prediction)** — at every real position,
  predict the *current* item's attribute from the hidden state;
* **MIP (masked item prediction)** — BERT4Rec-style Cloze over items.

Pre-training optimizes ``L_AAP + L_MIP`` on the (causal) encoder; the
same weights are then fine-tuned with the standard next-item objective,
mirroring S3-Rec's pretrain→finetune pipeline.  (Full S3-Rec pre-trains
bidirectionally and adds segment-level objectives — hence "lite".)

Requires ``dataset.item_attributes`` (see
``SequenceDataset.from_log(raw_item_attributes=...)`` and
``repro.data.synthetic.generate_log_with_attributes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import pad_left
from repro.data.preprocessing import SequenceDataset
from repro.models.encoder import trailing_columns
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.training import TrainingHistory
from repro.nn import functional as F
from repro.nn.layers import Embedding
from repro.nn.optim import Adam, GradientClipper
from repro.nn.tensor import Tensor


@dataclass
class S3RecLiteConfig:
    """Pre-training hyper-parameters for the attribute objectives."""

    pretrain_epochs: int = 5
    batch_size: int = 128
    learning_rate: float = 1e-3
    mask_probability: float = 0.2
    aap_weight: float = 1.0
    mip_weight: float = 1.0
    clip_norm: float = 5.0


@dataclass
class S3RecPretrainHistory:
    """Per-epoch AAP / MIP losses."""

    aap_losses: list[float] = field(default_factory=list)
    mip_losses: list[float] = field(default_factory=list)


class S3RecLite(SASRec):
    """SASRec fine-tuning on top of attribute + Cloze pre-training."""

    name = "S3Rec-lite"

    def __init__(
        self,
        dataset: SequenceDataset,
        config: SASRecConfig | None = None,
        s3: S3RecLiteConfig | None = None,
    ) -> None:
        if dataset.item_attributes is None:
            raise ValueError(
                "S3RecLite needs dataset.item_attributes — build the "
                "dataset with raw_item_attributes (see "
                "generate_log_with_attributes)"
            )
        super().__init__(dataset, config)
        self.s3 = s3 if s3 is not None else S3RecLiteConfig()
        self.item_attributes = np.asarray(dataset.item_attributes, dtype=np.int64)
        self.num_attributes = int(self.item_attributes.max()) + 1
        self.mask_token = dataset.mask_token
        # Attribute "embedding" doubles as the AAP output layer: the
        # hidden state is scored against every attribute vector.
        self.attribute_embedding = Embedding(
            self.num_attributes, self.config.dim, rng=self._rng
        )
        self.pretrain_history: S3RecPretrainHistory | None = None

    # ------------------------------------------------------------------
    # Pre-training objectives
    # ------------------------------------------------------------------
    def _attribute_logits(self, hidden: Tensor) -> Tensor:
        """Score hidden states against all attribute vectors."""
        table = self.attribute_embedding.weight  # (A, d)
        return hidden.matmul(table.transpose())

    def aap_loss(self, inputs: np.ndarray) -> Tensor:
        """Predict each real position's item attribute (AAP)."""
        hidden = self.encoder(inputs)  # (B, w, d)
        inputs = np.asarray(inputs)[:, -hidden.shape[1] :]
        positions = np.argwhere(inputs > 0)
        if len(positions) == 0:
            raise ValueError("batch has no real positions")
        gathered = hidden[positions[:, 0], positions[:, 1], :]
        logits = self._attribute_logits(gathered)  # (M, A)
        item_ids = inputs[positions[:, 0], positions[:, 1]]
        # The mask token carries no attribute — map it (and any oob id)
        # to attribute 0; those positions still train MIP.
        safe_ids = np.where(item_ids <= self.dataset_num_items, item_ids, 0)
        targets = self.item_attributes[safe_ids]
        return F.cross_entropy(logits, targets)

    def mip_loss(self, inputs: np.ndarray, labels: np.ndarray) -> Tensor:
        """Cloze masked-item prediction (MIP), full-softmax."""
        hidden = self.encoder(inputs)  # (B, w, d)
        labels = trailing_columns(labels, hidden.shape[1], "labels")
        positions = np.argwhere(labels > 0)
        if len(positions) == 0:
            raise ValueError("cloze batch has no masked positions")
        gathered = hidden[positions[:, 0], positions[:, 1], :]
        logits = gathered.matmul(self.encoder.item_embedding.weight.transpose())
        targets = labels[positions[:, 0], positions[:, 1]]
        return F.cross_entropy(logits, targets)

    def _make_batch(
        self, sequences: list[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(clean inputs, masked inputs, cloze labels) for one batch."""
        t = self.config.train.max_length
        clean = np.zeros((len(sequences), t), dtype=np.int64)
        masked = np.zeros((len(sequences), t), dtype=np.int64)
        labels = np.zeros((len(sequences), t), dtype=np.int64)
        for row, sequence in enumerate(sequences):
            padded = pad_left(sequence, t)
            clean[row] = padded
            real = padded > 0
            mask_positions = real & (rng.random(t) < self.s3.mask_probability)
            if not mask_positions.any() and real.any():
                mask_positions[rng.choice(np.flatnonzero(real))] = True
            labels[row, mask_positions] = padded[mask_positions]
            out = padded.copy()
            out[mask_positions] = self.mask_token
            masked[row] = out
        return clean, masked, labels

    def pretrain(self, dataset: SequenceDataset) -> S3RecPretrainHistory:
        """Optimize ``aap_weight·L_AAP + mip_weight·L_MIP``."""
        rng = self._rng
        eligible = [s for s in dataset.train_sequences if len(s) >= 2]
        params = list(self.parameters())
        optimizer = Adam(params, lr=self.s3.learning_rate)
        clipper = GradientClipper(params, self.s3.clip_norm)
        history = S3RecPretrainHistory()

        self.train()
        for __ in range(self.s3.pretrain_epochs):
            order = rng.permutation(len(eligible))
            aap_total, mip_total, batches = 0.0, 0.0, 0
            for start in range(0, len(order), self.s3.batch_size):
                chunk = [eligible[i] for i in order[start : start + self.s3.batch_size]]
                clean, masked, labels = self._make_batch(chunk, rng)
                aap = self.aap_loss(clean)
                mip = self.mip_loss(masked, labels)
                loss = self.s3.aap_weight * aap + self.s3.mip_weight * mip
                optimizer.zero_grad()
                loss.backward()
                clipper.clip()
                optimizer.step()
                aap_total += aap.item()
                mip_total += mip.item()
                batches += 1
            history.aap_losses.append(aap_total / max(1, batches))
            history.mip_losses.append(mip_total / max(1, batches))
        self.eval()
        self.pretrain_history = history
        return history

    def fit(
        self, dataset: SequenceDataset, skip_pretrain: bool = False, **overrides
    ) -> TrainingHistory:
        """Attribute/Cloze pre-training, then supervised fine-tuning."""
        if not skip_pretrain:
            self.pretrain(dataset)
        return super().fit(dataset, **overrides)
