"""Plain-text table / figure-series formatting.

The benchmark harness and the standalone experiment drivers both print the
paper's tables and figure series as aligned plain text, so runs are easy to
diff against EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence


def format_table(title: str, rows: Mapping[str, Mapping[str, object]], *,
                 columns: Optional[Sequence[str]] = None,
                 float_format: str = "{:.3f}") -> str:
    """Render ``{row_label: {column: value}}`` as an aligned text table."""
    if columns is None:
        seen: List[str] = []
        for row in rows.values():
            for column in row:
                if column not in seen:
                    seen.append(column)
        columns = seen

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    row_label_width = max([len(label) for label in rows] + [len(title)])
    col_widths = {col: max([len(col)] + [len(fmt(row.get(col, "")))
                                         for row in rows.values()])
                  for col in columns}
    lines = [title]
    header = " " * row_label_width + "  " + "  ".join(
        col.rjust(col_widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in rows.items():
        cells = "  ".join(fmt(row.get(col, "")).rjust(col_widths[col])
                          for col in columns)
        lines.append(label.ljust(row_label_width) + "  " + cells)
    return "\n".join(lines)


def format_figure_series(title: str, series: Mapping[str, Mapping[str, float]], *,
                         value_label: str = "normalized performance") -> str:
    """Render figure data as ``series -> x -> value`` text with bars.

    ``series`` maps a series name (e.g. a workload) to ``{x label: value}``.
    Values are expected in [0, ~1.5]; a simple ASCII bar gives the visual
    shape of the paper's bar charts.
    """
    lines = [f"{title}  ({value_label})"]
    for name, points in series.items():
        lines.append(f"  {name}")
        for x_label, value in points.items():
            bar = "#" * max(0, int(round(value * 40)))
            lines.append(f"    {x_label:>24s}  {value:6.3f}  {bar}")
    return "\n".join(lines)


def rows_from_table(rows: Mapping[str, Mapping[str, object]], *,
                    label_field: str = "label") -> List[Dict[str, object]]:
    """Flatten ``{row_label: {column: value}}`` into a list of row dicts.

    The standard ``to_rows()`` shape for experiments whose result is already
    a label-keyed table: each row keeps its identifying label as a field, so
    the list round-trips through JSON without losing structure.
    """
    return [{label_field: label, **row} for label, row in rows.items()]


def write_json_report(path: str, payload: Mapping[str, Any]) -> None:
    """Write a machine-readable report with a stable, diff-friendly encoding."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def format_counters(title: str, counters: Dict[str, int], *, prefix: str = "",
                    limit: int = 40) -> str:
    """Render a (possibly filtered) counter dump."""
    rows = [(k, v) for k, v in sorted(counters.items()) if k.startswith(prefix)]
    lines = [title]
    for name, value in rows[:limit]:
        lines.append(f"  {name:<60s} {value}")
    if len(rows) > limit:
        lines.append(f"  ... ({len(rows) - limit} more)")
    return "\n".join(lines)
