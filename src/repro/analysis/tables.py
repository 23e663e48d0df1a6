"""ASCII table/series rendering — the benches' output format.

The paper's figures are regenerated as text artefacts; these helpers
keep every bench's output uniform and diff-able.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["render_table", "render_series"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Aligned ASCII table with a title rule."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    out = [title, "=" * len(title)]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


#: the longest bar of a rendered series, in characters
SERIES_WIDTH = 40


def render_series(title: str, xlabel: str, ylabel: str,
                  points: Sequence[tuple[Any, Any]]) -> str:
    """A two-column series with a proportional ASCII bar per row."""
    if not points:
        return f"{title}\n(no data)"
    ys = [float(y) for _, y in points]
    ymax = max(max(ys), 1e-12)
    out = [title, "=" * len(title), f"{xlabel:>12} | {ylabel}"]
    for x, y in points:
        bar = "#" * int(round(float(y) / ymax * SERIES_WIDTH))
        out.append(f"{_fmt(x):>12} | {_fmt(float(y)):>10} {bar}")
    return "\n".join(out)
