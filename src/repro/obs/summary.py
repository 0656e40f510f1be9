"""Trace analysis for ``repro trace summarize``: where did time go?

Works on the plain span dicts :func:`~repro.obs.trace.read_trace`
returns, so it can digest any JSONL trace file — a ``repro report
--trace`` run, a serve session, or a ``repro generate --trace`` run.
Two views:

* :func:`slowest_spans` — the top-N individual spans by duration, the
  direct answer to "what single operation cost the most";
* :func:`aggregate_spans` — per-name totals (count / total / mean /
  max), the answer to "which *kind* of operation dominates".

Both are pure functions returning table rows; the CLI renders them
through :func:`repro.report.render_table`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["aggregate_spans", "format_summary", "slowest_spans"]

#: Attributes worth showing inline in the slowest-spans table, in
#: display order; everything else is elided to keep rows terminal-width.
_DETAIL_ATTRS = (
    "country", "platform", "metric", "month", "task", "endpoint",
    "method", "path", "status_code", "store", "slices",
)


def _duration(span: Mapping[str, object]) -> float:
    value = span.get("duration_ms", 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def _detail(span: Mapping[str, object]) -> str:
    attrs = span.get("attrs")
    if not isinstance(attrs, Mapping):
        return ""
    parts = [
        f"{key}={attrs[key]}" for key in _DETAIL_ATTRS if key in attrs
    ]
    return " ".join(parts)


def slowest_spans(
    spans: Sequence[Mapping[str, object]], top: int = 15
) -> list[tuple[str, str, str, str]]:
    """The ``top`` slowest spans: (name, ms, status, detail) rows."""
    ranked = sorted(spans, key=_duration, reverse=True)[:top]
    return [
        (
            str(span.get("name", "?")),
            f"{_duration(span):.3f}",
            str(span.get("status", "?")),
            _detail(span),
        )
        for span in ranked
    ]


def aggregate_spans(
    spans: Sequence[Mapping[str, object]],
) -> list[tuple[str, str, str, str, str]]:
    """Per-name (name, count, total ms, mean ms, max ms), total-sorted."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        totals.setdefault(str(span.get("name", "?")), []).append(
            _duration(span)
        )
    rows = sorted(
        totals.items(), key=lambda item: sum(item[1]), reverse=True
    )
    return [
        (
            name,
            str(len(durations)),
            f"{sum(durations):.3f}",
            f"{sum(durations) / len(durations):.3f}",
            f"{max(durations):.3f}",
        )
        for name, durations in rows
    ]


def format_summary(
    spans: Sequence[Mapping[str, object]], *, top: int = 15
) -> str:
    """The full ``repro trace summarize`` report as one printable string."""
    from ..report import render_table

    traces = {
        span.get("trace") for span in spans if span.get("trace") is not None
    }
    errors = sum(1 for span in spans if span.get("status") == "error")
    header = (
        f"{len(spans)} spans across {len(traces)} trace(s), "
        f"{errors} error(s)"
    )
    slow = render_table(
        ("span", "ms", "status", "detail"),
        slowest_spans(spans, top),
        title=f"top {min(top, len(spans))} slowest spans",
    )
    agg = render_table(
        ("span", "count", "total ms", "mean ms", "max ms"),
        aggregate_spans(spans),
        title="by span name",
    )
    return f"{header}\n\n{slow}\n\n{agg}"
