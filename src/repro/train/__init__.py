"""The training stack: one loop, three regimes, two gradient sources.

* :mod:`repro.train.loop` — :func:`run_training`, the single
  step-driven epoch loop (optimizer, schedule, clipping, runtime hooks,
  obs events) behind ``pretrain_contrastive``, ``train_joint`` and
  ``train_next_item_model``, plus the in-process gradient source used
  at ``workers=0``.
* :mod:`repro.train.stages` — :class:`PretrainStage`,
  :class:`NextItemStage`, :class:`JointStage`: everything that differs
  between regimes (loaders, loss, history, epoch event, early stop).
* :mod:`repro.train.parallel` — the ``workers=N`` gradient source
  (``repro train --workers N``): forked workers over shared-memory
  parameter pages with an ordered gradient allreduce.  Imported only
  when ``workers >= 1``, so a ``workers=0`` run never loads it.
"""

from repro.train.loop import run_training
from repro.train.stages import JointStage, NextItemStage, PretrainStage, Stage

__all__ = ["JointStage", "NextItemStage", "PretrainStage", "Stage", "run_training"]
