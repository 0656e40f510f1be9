"""repro.obs — spans, the one telemetry primitive of the whole stack.

Spans answer "where does time go" and "how much was served" across the
three execution layers (see DESIGN.md, "Observability"):

* the **generation engine** emits one ``engine.generate_slice`` span
  per slice;
* the **pipeline runner** emits one ``pipeline.task`` span per task
  with its status and artifact-store outcome;
* the **serving layer** emits one ``http.<endpoint>`` span per
  response (``http.rankings``, ``http.unknown``, ...).

Every span, traced or not, closes into the per-name
:data:`AGGREGATE` that ``/v1/metrics`` renders.  Instrumented code
never checks whether tracing is on: the active tracer defaults to
:data:`NULL_TRACER`, whose spans are not collected (benchmarked in
``benchmarks/bench_obs.py``).  ``--trace PATH`` installs a real
:class:`Tracer` and exports JSON Lines (one file per fleet worker);
``repro trace summarize PATH...`` digests the files.

Quick start::

    from repro import obs

    with obs.tracing("run.jsonl"):
        repro.report("data/full", "runs/full")

    spans = obs.read_trace("run.jsonl")
    print(obs.format_summary(spans, top=10))
"""

from .aggregate import AGGREGATE, LATENCY_BUCKETS_MS, SpanAggregate
from .summary import format_summary, name_rows, slowest_spans
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceCollector,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "AGGREGATE",
    "LATENCY_BUCKETS_MS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanAggregate",
    "TraceCollector",
    "Tracer",
    "format_summary",
    "get_tracer",
    "name_rows",
    "read_trace",
    "set_tracer",
    "slowest_spans",
    "span",
    "tracing",
]
