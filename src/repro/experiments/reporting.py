"""Text reporting helpers shared by the experiment harnesses.

Every experiment prints the same rows/series the paper's figures plot, as
plain text tables — the benchmarks tee these into ``bench_output.txt``.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

__all__ = ["format_table", "print_table", "scale_factor", "session_tables"]

#: Tables printed during this process, in order — the benchmark suite's
#: terminal-summary hook replays them so figure rows survive pytest's
#: output capturing.
_SESSION_TABLES: list[str] = []


def session_tables() -> list[str]:
    """All tables printed so far in this process."""
    return list(_SESSION_TABLES)


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Render a fixed-width text table."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    table = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Print and return a table (also recorded for :func:`session_tables`)."""
    text = format_table(title, headers, rows)
    print("\n" + text)
    _SESSION_TABLES.append(text)
    return text


def scale_factor(default: float = 1.0) -> float:
    """Experiment scale from the ``REPRO_SCALE`` environment variable.

    ``REPRO_SCALE=8`` runs the aggregation experiment at the paper's full
    ~800 000-offer scale; the default keeps the whole benchmark suite in the
    minutes range.
    """
    try:
        return float(os.environ.get("REPRO_SCALE", default))
    except ValueError:
        return default
