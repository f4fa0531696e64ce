"""Grid search with validation-split model selection.

The paper reports every baseline "under its optimal settings" and
sweeps CL4SRec's augmentation proportions on a grid — this utility is
the machinery for doing that honestly: train one model per grid point,
select on the *validation* split, and only then report the winner's
*test* metrics (never select on test).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.data.preprocessing import SequenceDataset
from repro.eval.evaluator import Evaluator
from repro.experiments.reporting import ResultTable


@dataclass
class SweepPoint:
    """One evaluated grid point."""

    params: dict[str, Any]
    valid_metrics: dict[str, float]
    test_metrics: dict[str, float] | None = None


@dataclass
class SweepResult:
    """All grid points plus the validation-selected winner."""

    metric: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def best(self) -> SweepPoint:
        if not self.points:
            raise ValueError("sweep produced no points")
        return max(self.points, key=lambda p: p.valid_metrics[self.metric])

    def to_markdown(self) -> str:
        if not self.points:
            return "(empty sweep)"
        param_names = sorted(self.points[0].params)
        headers = param_names + [f"valid {self.metric}", f"test {self.metric}"]
        table = ResultTable(headers=headers, title="Hyper-parameter sweep")
        best = self.best
        for point in self.points:
            marker = " *" if point is best else ""
            test_value = (
                f"{point.test_metrics[self.metric]:.4f}"
                if point.test_metrics
                else "-"
            )
            table.add_row(
                *[str(point.params[name]) for name in param_names],
                f"{point.valid_metrics[self.metric]:.4f}{marker}",
                test_value,
            )
        return table.to_markdown()


def grid(**axes: Sequence) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of param dicts.

    >>> grid(rate=[0.1, 0.5], op=["crop"])
    [{'rate': 0.1, 'op': 'crop'}, {'rate': 0.5, 'op': 'crop'}]
    """
    names = list(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def run_sweep(
    build_and_fit: Callable[[Mapping[str, Any]], Any],
    dataset: SequenceDataset,
    param_grid: Sequence[Mapping[str, Any]],
    metric: str = "HR@10",
    max_eval_users: int | None = 1000,
) -> SweepResult:
    """Train one model per grid point and select on validation.

    Parameters
    ----------
    build_and_fit:
        Callable receiving one param dict, returning a *fitted* model
        exposing ``score_items``.
    dataset:
        Dataset with leave-one-out splits.
    param_grid:
        Parameter dicts (see :func:`grid`).
    metric:
        Selection metric, evaluated on the validation split.

    Only the winner gets test metrics — the honest protocol of selecting
    before looking.
    """
    if not param_grid:
        raise ValueError("param_grid is empty")
    valid_evaluator = Evaluator(dataset, split="valid")
    result = SweepResult(metric=metric)
    for params in param_grid:
        model = build_and_fit(dict(params))
        valid = valid_evaluator.evaluate(model, max_users=max_eval_users)
        point = SweepPoint(params=dict(params), valid_metrics=valid.metrics)
        point._model = model  # type: ignore[attr-defined]
        result.points.append(point)

    best = result.best
    best.test_metrics = Evaluator(dataset, split="test").evaluate(
        best._model, max_users=max_eval_users  # type: ignore[attr-defined]
    ).metrics
    for point in result.points:
        del point._model  # type: ignore[attr-defined]
    return result
