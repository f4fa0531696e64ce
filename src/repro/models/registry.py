"""Single model registry: every construction path goes through here.

The experiment runners (``repro.experiments``), the CLI and the serving
loader (``repro.serve``) all need to turn a method name plus a scale
preset into a ready-to-train model.  New models plug in with a
decorator::

    from repro.models.registry import register_model

    @register_model("MyModel")
    def _build_my_model(dataset, scale, **kwargs):
        return MyModel(dataset, MyModelConfig(dim=scale.dim))
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.data.preprocessing import SequenceDataset

if TYPE_CHECKING:  # annotation-only import; a runtime import would cycle
    from repro.experiments.config import ExperimentScale

from repro.models.bert4rec import BERT4Rec, BERT4RecConfig
from repro.models.bprmf import BPRMF, BPRMFConfig
from repro.models.caser import Caser, CaserConfig
from repro.models.fpmc import FPMC, FPMCConfig
from repro.models.gru4rec import GRU4Rec, GRU4RecConfig
from repro.models.ncf import NCF, NCFConfig
from repro.models.pop import Pop
from repro.models.sasrec import SASRec, SASRecConfig
from repro.models.sasrec_bpr import SASRecBPR
from repro.models.training import TrainConfig

#: The paper's seven Table-2 methods, in table order.
MODEL_NAMES = (
    "Pop",
    "BPR-MF",
    "NCF",
    "GRU4Rec",
    "SASRec",
    "SASRec-BPR",
    "CL4SRec",
)

# Extension baselines beyond the paper's Table 2.
EXTENSION_MODEL_NAMES = ("FPMC", "Caser", "BERT4Rec", "MoCo-CL4SRec")

Builder = Callable[..., object]

_REGISTRY: dict[str, Builder] = {}


def register_model(name: str) -> Callable[[Builder], Builder]:
    """Class decorator registering a builder under ``name``.

    The builder receives ``(dataset, scale, **kwargs)`` and returns an
    unfitted :class:`~repro.models.base.Recommender`.
    """

    def _register(builder: Builder) -> Builder:
        if name in _REGISTRY:
            raise ValueError(f"model '{name}' is already registered")
        _REGISTRY[name] = builder
        return builder

    return _register


def available_models() -> tuple[str, ...]:
    """All registered model names (paper methods first, then extensions)."""
    ordered = [n for n in MODEL_NAMES + EXTENSION_MODEL_NAMES if n in _REGISTRY]
    extras = sorted(set(_REGISTRY) - set(ordered))
    return tuple(ordered + extras)


def build_model(
    name: str,
    dataset: SequenceDataset,
    scale: ExperimentScale,
    **kwargs,
) -> object:
    """Instantiate a method by its registered name (not yet fitted).

    Model-specific keyword arguments (the CL4SRec augmentation settings,
    for example) are forwarded to the builder; builders ignore the ones
    they do not understand.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model '{name}'; expected one of {available_models()}"
        ) from None
    return builder(dataset, scale, **kwargs)


# ----------------------------------------------------------------------
# Builders for the paper's methods and the extension baselines
# ----------------------------------------------------------------------
def _train_config(scale: ExperimentScale, batch_factor: int = 1) -> TrainConfig:
    return TrainConfig(
        epochs=scale.epochs,
        batch_size=scale.batch_size * batch_factor,
        max_length=scale.max_length,
        seed=scale.seed,
    )


def _row_table_config(scale: ExperimentScale, batch_factor: int) -> TrainConfig:
    """BPR-MF, NCF, FPMC and Caser train at a constant learning rate."""
    return replace(_train_config(scale, batch_factor), lr_final_factor=1.0)


def _sasrec_config(scale: ExperimentScale) -> SASRecConfig:
    return SASRecConfig(dim=scale.dim, train=_train_config(scale))


@register_model("Pop")
def _build_pop(dataset: SequenceDataset, scale: ExperimentScale, **kwargs) -> Pop:
    return Pop()


@register_model("BPR-MF")
def _build_bprmf(dataset: SequenceDataset, scale: ExperimentScale, **kwargs) -> BPRMF:
    return BPRMF(
        dataset, BPRMFConfig(dim=scale.dim, train=_row_table_config(scale, 4))
    )


@register_model("NCF")
def _build_ncf(dataset: SequenceDataset, scale: ExperimentScale, **kwargs) -> NCF:
    return NCF(
        dataset,
        NCFConfig(
            dim=max(16, scale.dim // 2), train=_row_table_config(scale, 4)
        ),
    )


@register_model("FPMC")
def _build_fpmc(dataset: SequenceDataset, scale: ExperimentScale, **kwargs) -> FPMC:
    return FPMC(
        dataset,
        FPMCConfig(
            dim=max(16, scale.dim // 2), train=_row_table_config(scale, 4)
        ),
    )


@register_model("Caser")
def _build_caser(dataset: SequenceDataset, scale: ExperimentScale, **kwargs) -> Caser:
    return Caser(
        dataset,
        CaserConfig(
            dim=max(16, scale.dim // 2), train=_row_table_config(scale, 2)
        ),
    )


@register_model("BERT4Rec")
def _build_bert4rec(
    dataset: SequenceDataset, scale: ExperimentScale, **kwargs
) -> BERT4Rec:
    return BERT4Rec(dataset, BERT4RecConfig(dim=scale.dim, train=_train_config(scale)))


@register_model("GRU4Rec")
def _build_gru4rec(
    dataset: SequenceDataset, scale: ExperimentScale, **kwargs
) -> GRU4Rec:
    return GRU4Rec(
        dataset,
        GRU4RecConfig(dim=scale.dim, hidden_dim=scale.dim, train=_train_config(scale)),
    )


@register_model("SASRec")
def _build_sasrec(dataset: SequenceDataset, scale: ExperimentScale, **kwargs) -> SASRec:
    return SASRec(dataset, _sasrec_config(scale))


@register_model("SASRec-BPR")
def _build_sasrec_bpr(
    dataset: SequenceDataset, scale: ExperimentScale, **kwargs
) -> SASRecBPR:
    return SASRecBPR(dataset, _sasrec_config(scale))


@register_model("CL4SRec")
def _build_cl4srec(
    dataset: SequenceDataset,
    scale: ExperimentScale,
    augmentations: Sequence[str] = ("crop", "mask", "reorder"),
    rates: Sequence[float] | float = 0.5,
    distinct_pair: bool = False,
    temperature: float = 1.0,
    mode: str = "pretrain_finetune",
    cl_weight: float = 0.1,
    **kwargs,
):
    # Imported lazily: repro.core itself imports the model modules, so a
    # top-level import here would be circular when ``repro.models`` is
    # imported before ``repro.core``.
    from repro.core.cl4srec import CL4SRec, CL4SRecConfig

    config = CL4SRecConfig(
        sasrec=_sasrec_config(scale),
        augmentations=tuple(augmentations),
        rates=rates,
        distinct_pair=distinct_pair,
        temperature=temperature,
        cl_weight=cl_weight,
        mode=mode,
        pretrain=replace(_train_config(scale), epochs=scale.pretrain_epochs),
        joint=_train_config(scale),
    )
    return CL4SRec(dataset, config)


@register_model("MoCo-CL4SRec")
def _build_moco(dataset: SequenceDataset, scale: ExperimentScale, **kwargs):
    from repro.core.momentum import MoCoCL4SRec

    base = _build_cl4srec(dataset, scale, **kwargs)
    return MoCoCL4SRec(dataset, base.cl_config)
