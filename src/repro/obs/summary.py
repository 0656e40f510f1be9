"""Trace analysis for ``repro trace summarize``: where did time go?

Works on the plain span dicts :func:`~repro.obs.trace.read_trace`
returns, so it can digest any JSONL trace files — a ``repro report
--trace`` run, a serve session (one file per fleet worker), or a
``repro generate --trace`` run.  Two views:

* :func:`slowest_spans` — the top-N individual spans by duration, the
  direct answer to "what single operation cost the most";
* :func:`name_rows` — per-name totals of a span aggregate, the one
  ``/v1/metrics`` serves: "which *kind* of operation dominates".

Both are pure functions returning table rows; the CLI renders them
through :func:`repro.report.render_table`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .aggregate import SpanAggregate

__all__ = ["format_summary", "name_rows", "slowest_spans"]

#: Attributes worth showing inline in the slowest-spans table, in
#: display order; everything else is elided to keep rows terminal-width.
_DETAIL_ATTRS = (
    "country", "platform", "metric", "month", "task", "method", "path",
    "status_code", "store", "slices", "format", "version",
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


def name_rows(
    totals: Mapping[str, Mapping[str, object]],
) -> list[tuple[str, str, str, str, str, str]]:
    """Per-name (name, count, total ms, mean ms, max ms, errors) rows of
    a :meth:`SpanAggregate.snapshot`, total-sorted."""
    rows = sorted(
        totals.items(), key=lambda item: item[1]["sum_ms"], reverse=True
    )
    return [
        (
            name,
            str(entry["count"]),
            f"{entry['sum_ms']:.3f}",
            f"{entry['sum_ms'] / entry['count']:.3f}",
            f"{entry['max_ms']:.3f}",
            str(entry["errors"]),
        )
        for name, entry in rows
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
        ("span", "count", "total ms", "mean ms", "max ms", "errors"),
        name_rows(SpanAggregate.of(spans).snapshot()),
        title="by span name",
    )
    return f"{header}\n\n{slow}\n\n{agg}"
