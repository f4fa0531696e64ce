"""Dataset substrate for the CL4SRec reproduction.

The paper evaluates on Amazon Beauty / Sports / Toys and Yelp.  Those
downloads are unavailable in this offline environment, so
:mod:`repro.data.synthetic` provides a latent-interest generative
simulator of implicit-feedback logs, with per-dataset configurations in
:mod:`repro.data.registry` calibrated to the paper's Table 1 statistics.
The rest of the pipeline — 5-core filtering, chronological per-user
sequences, leave-one-out splits, padded batching, negative sampling —
follows the paper's §4.1 exactly and works identically on real logs.
"""

from repro.data.io import (
    MalformedRowsSkipped,
    read_csv_log,
    read_jsonl_log,
    write_csv_log,
)
from repro.data.log import InteractionLog
from repro.data.preprocessing import (
    SequenceDataset,
    build_sequences,
    five_core_filter,
    leave_one_out_split,
)
from repro.data.loaders import (
    ContrastiveBatch,
    ContrastiveBatchLoader,
    NegativeSampler,
    NextItemBatch,
    NextItemBatchLoader,
    PopularityNegativeSampler,
    pad_left,
)
from repro.data.pipeline import (
    CyclingStream,
    PaddedViews,
    build_padded_views,
    padded_views,
)
from repro.data.registry import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
)
from repro.data.stats import dataset_report, markov_predictability, popularity_gini
from repro.data.synthetic import SyntheticConfig, generate_log

__all__ = [
    "DATASETS",
    "ContrastiveBatch",
    "ContrastiveBatchLoader",
    "CyclingStream",
    "DatasetSpec",
    "InteractionLog",
    "MalformedRowsSkipped",
    "NegativeSampler",
    "NextItemBatch",
    "NextItemBatchLoader",
    "PaddedViews",
    "PopularityNegativeSampler",
    "SequenceDataset",
    "SyntheticConfig",
    "build_padded_views",
    "padded_views",
    "build_sequences",
    "dataset_names",
    "dataset_report",
    "five_core_filter",
    "markov_predictability",
    "popularity_gini",
    "generate_log",
    "leave_one_out_split",
    "load_dataset",
    "pad_left",
    "read_csv_log",
    "read_jsonl_log",
    "write_csv_log",
]
