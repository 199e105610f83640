"""Tiny fixed-width table formatting used by benchmarks and examples.

The benchmark harness prints the same rows/series the paper reports; this
module keeps that formatting in one place so output stays uniform and is easy
to test.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_row(values: Sequence, widths: Sequence[int], precision: int = 4) -> str:
    """Format one row of mixed str/float/int cells with per-column widths."""
    if len(values) != len(widths):
        raise ValueError("values and widths must have the same length")
    cells = []
    for value, width in zip(values, widths, strict=True):
        if isinstance(value, bool):
            text = str(value)
        elif isinstance(value, float):
            text = f"{value:.{precision}f}"
        else:
            text = str(value)
        cells.append(text.rjust(width))
    return " ".join(cells)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    precision: int = 4,
    min_width: int = 8,
) -> str:
    """Render a complete fixed-width table with a header separator line."""
    rows = [list(r) for r in rows]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
    widths = [max(min_width, len(h)) for h in headers]
    for row in rows:
        for j, value in enumerate(row):
            text = f"{value:.{precision}f}" if isinstance(value, float) else str(value)
            widths[j] = max(widths[j], len(text))
    lines = [format_row(headers, widths, precision)]
    lines.append(" ".join("-" * w for w in widths))
    for row in rows:
        lines.append(format_row(row, widths, precision))
    return "\n".join(lines)
