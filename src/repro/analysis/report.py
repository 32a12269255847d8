"""ASCII rendering of tables and bar charts for experiment output.

The experiment drivers regenerate the paper's figures as text: grouped
bars for the per-workload comparisons (Figs. 4, 7, 9), series tables for
the sweeps (Figs. 5, 6, 8), and plain tables elsewhere.  Keeping the
renderer dependency-free makes every experiment runnable on a headless
machine and its output diffable.
"""

from __future__ import annotations

from typing import Sequence


def format_percent(value: float, digits: int = 1) -> str:
    """Render a ratio as a percent string (0.125 -> '12.5%')."""
    return f"{value * 100:.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: "str | None" = None,
) -> str:
    """Monospace table with column widths fit to content."""
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: "str | None" = None,
    unit: str = "",
) -> str:
    """Horizontal ASCII bar chart, one bar per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    peak = max((abs(v) for v in values), default=0.0)
    label_width = max((len(label) for label in labels), default=0)
    parts = []
    if title:
        parts.append(title)
    for label, value in zip(labels, values):
        length = 0 if peak == 0 else int(round(abs(value) / peak * width))
        bar = "#" * length
        parts.append(
            f"{label.ljust(label_width)} |{bar.ljust(width)}| "
            f"{value:.3f}{unit}"
        )
    return "\n".join(parts)


def grouped_bar_chart(
    labels: Sequence[str],
    series: "dict[str, Sequence[float]]",
    width: int = 40,
    title: "str | None" = None,
    unit: str = "",
) -> str:
    """Several series per label (e.g. ideal vs. off-chip per workload)."""
    for name, values in series.items():
        if len(values) != len(labels):
            raise ValueError(f"series {name!r} length mismatch")
    peak = max(
        (abs(v) for values in series.values() for v in values), default=0.0
    )
    name_width = max((len(name) for name in series), default=0)
    label_width = max((len(label) for label in labels), default=0)
    parts = []
    if title:
        parts.append(title)
    for i, label in enumerate(labels):
        for j, (name, values) in enumerate(series.items()):
            value = values[i]
            length = 0 if peak == 0 else int(round(abs(value) / peak * width))
            prefix = label.ljust(label_width) if j == 0 else " " * label_width
            parts.append(
                f"{prefix} {name.ljust(name_width)} "
                f"|{('#' * length).ljust(width)}| {value:.3f}{unit}"
            )
    return "\n".join(parts)


def series_table(
    x_label: str,
    x_values: Sequence[object],
    series: "dict[str, Sequence[float]]",
    title: "str | None" = None,
) -> str:
    """Sweep output: one row per x value, one column per series."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [values[i] for values in series.values()])
    return format_table(headers, rows, title=title)
