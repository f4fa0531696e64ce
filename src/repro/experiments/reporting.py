"""Plain-text / markdown result tables for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def format_float(value: float) -> str:
    """Format a metric the way the paper prints it (e.g. ``0.0513``)."""
    return f"{value:.4f}"


@dataclass
class ResultTable:
    """A simple column-aligned table with markdown rendering."""

    headers: Sequence[str]
    rows: list[Sequence[str]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *cells) -> None:
        """Append a row; non-string cells are formatted automatically."""
        formatted = [
            format_float(cell) if isinstance(cell, float) else str(cell)
            for cell in cells
        ]
        if len(formatted) != len(self.headers):
            raise ValueError(
                f"row has {len(formatted)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(formatted)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        widths = [
            max(len(str(h)), *(len(row[i]) for row in self.rows), 3)
            if self.rows
            else max(len(str(h)), 3)
            for i, h in enumerate(self.headers)
        ]
        lines = []
        if self.title:
            lines.append(f"### {self.title}")
            lines.append("")
        header = "| " + " | ".join(
            str(h).ljust(w) for h, w in zip(self.headers, widths)
        ) + " |"
        rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        lines.append(header)
        lines.append(rule)
        for row in self.rows:
            lines.append(
                "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_markdown()


def improvement_pct(candidate: float, baseline: float) -> float:
    """Relative improvement in percent (paper's "Improv." columns)."""
    if baseline == 0:
        return float("inf") if candidate > 0 else 0.0
    return 100.0 * (candidate - baseline) / baseline
