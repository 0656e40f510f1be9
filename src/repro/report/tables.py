"""Plain-text table rendering for benchmarks and examples.

Benchmarks print "paper vs measured" comparisons; these helpers render
them as aligned ASCII tables without pulling in any dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def comparison_row(
    label: str, paper: object, measured: object, note: str = ""
) -> tuple[str, str, str, str]:
    """One row of a paper-vs-measured comparison table."""
    return (label, _fmt(paper), _fmt(measured), note)


def render_comparison(
    rows: Iterable[tuple[str, object, object, str]],
    title: str,
) -> str:
    """Render a paper-vs-measured table."""
    return render_table(
        ("quantity", "paper", "measured", "note"),
        [comparison_row(*row) for row in rows],
        title=title,
    )


def render_shares(
    shares: dict[str, float],
    title: str,
    top: int = 15,
    percent: bool = True,
) -> str:
    """Render a category → share mapping, largest first.

    Ties go by name, so the table does not depend on the mapping's
    insertion order (a stored artifact's JSON keys come back sorted).
    """
    ordered = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    rows = [
        (name, f"{value * 100:.1f}%" if percent else f"{value:.4f}")
        for name, value in ordered
    ]
    return render_table(("category", "share"), rows, title=title)
