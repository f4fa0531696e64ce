"""Experiment harness: one runner per paper table/figure.

Every runner regenerates the same rows/series the paper reports:

* :mod:`repro.experiments.table1` — dataset statistics.
* :mod:`repro.experiments.table2` — overall method comparison (RQ1).
* :mod:`repro.experiments.figure4` — augmentation × proportion sweep (RQ2).
* :mod:`repro.experiments.figure5` — composition of augmentations (RQ3).
* :mod:`repro.experiments.figure6` — training-data sparsity (RQ4).
* :mod:`repro.experiments.ablations` — extension studies (projection
  head, temperature, joint vs. two-stage training).

Runners are deterministic given their ``ExperimentScale`` and seed, and
return result objects with ``to_markdown()`` for human-readable output.
"""

from repro.experiments.config import BENCH_SCALE, FULL_SCALE, SMOKE_SCALE, ExperimentScale
from repro.experiments.reporting import ResultTable, format_float
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.figure5 import Figure5Result, run_figure5
from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.ablations import (
    AblationResult,
    run_joint_vs_pretrain,
    run_projection_ablation,
    run_temperature_ablation,
)
from repro.experiments.convergence import ConvergenceResult, run_convergence
from repro.experiments.report import Report, build_report
from repro.experiments.tracking import RunRecord, RunRegistry

__all__ = [
    "AblationResult",
    "BENCH_SCALE",
    "ConvergenceResult",
    "ExperimentScale",
    "FULL_SCALE",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "Report",
    "ResultTable",
    "RunRecord",
    "RunRegistry",
    "SMOKE_SCALE",
    "Table1Result",
    "Table2Result",
    "build_report",
    "format_float",
    "run_figure4",
    "run_figure5",
    "run_convergence",
    "run_figure6",
    "run_joint_vs_pretrain",
    "run_projection_ablation",
    "run_table1",
    "run_table2",
    "run_temperature_ablation",
]
