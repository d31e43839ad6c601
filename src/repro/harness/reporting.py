"""Plain-text reporting helpers for the experiment harness.

Every experiment in :mod:`repro.harness.experiments` returns a dictionary
containing (at least) a ``rows`` list of flat dictionaries.  The helpers here
render those rows as aligned text tables -- the reproduction's stand-in for
the paper's figures -- and provide simple shape checks (monotonicity,
dominance) for reading them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_report", "save_json", "monotonic_non_decreasing", "speedup"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of dict rows as an aligned text table.

    ``columns`` selects and orders the columns; by default the keys of the
    first row are used in insertion order.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    table: List[List[str]] = [list(columns)]
    for row in rows:
        table.append([_format_value(row.get(column, "")) for column in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(lines)


def format_report(title: str, result: Mapping[str, Any], columns: Optional[Sequence[str]] = None) -> str:
    """Render an experiment result: title, scalar summary lines, then the rows table."""
    lines = [f"== {title} =="]
    for key, value in result.items():
        if key == "rows" or isinstance(value, (list, dict)):
            continue
        lines.append(f"{key}: {_format_value(value)}")
    rows = result.get("rows")
    if rows:
        lines.append(format_table(rows, columns))
    return "\n".join(lines)


def save_json(path: str, result: Mapping[str, Any]) -> None:
    """Persist an experiment result as JSON (benchmarks archive their outputs)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, default=str)


def monotonic_non_decreasing(values: Iterable[float]) -> bool:
    """Return ``True`` when the series never decreases (used in shape checks)."""
    values = list(values)
    return all(values[i] <= values[i + 1] for i in range(len(values) - 1))


def speedup(baseline_seconds: float, improved_seconds: float) -> float:
    """Return baseline/improved, guarding against a zero denominator."""
    if improved_seconds <= 0:
        return float("inf")
    return baseline_seconds / improved_seconds
