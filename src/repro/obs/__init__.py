"""repro.obs — hierarchical tracing for the whole stack.

One lightweight subsystem answers "where does time go" across the
three execution layers (see DESIGN.md, "Observability"):

* the **generation engine** emits one ``engine.generate_slice`` span
  per slice;
* the **pipeline runner** emits one ``pipeline.task`` span per task
  with its status and artifact-store outcome;
* the **serving layer** emits one ``http.request`` span per request
  (plus per-endpoint ``service.*`` spans), surfaced as a ``trace``
  block in ``/v1/metrics``.

Instrumented code never checks whether tracing is on: the module-level
active tracer defaults to :data:`NULL_TRACER`, a no-op shim whose cost
is one attribute lookup per span (benchmarked in
``benchmarks/bench_obs.py``).  ``repro generate|report|serve --trace
PATH`` installs a real :class:`Tracer` for the run and exports JSON
Lines; ``repro trace summarize PATH`` digests the file.

Quick start::

    from repro import obs

    with obs.tracing("run.jsonl"):
        repro.report("data/full", "runs/full")

    spans = obs.read_trace("run.jsonl")
    print(obs.format_summary(spans, top=10))
"""

from .summary import aggregate_spans, format_summary, slowest_spans
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
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceCollector",
    "Tracer",
    "aggregate_spans",
    "format_summary",
    "get_tracer",
    "read_trace",
    "set_tracer",
    "slowest_spans",
    "span",
    "tracing",
]
