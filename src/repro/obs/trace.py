"""Hierarchical tracing: spans, collectors, the disabled shim.

A :class:`Span` is one timed region of work — ``engine.generate_slice``,
``pipeline.task``, ``http.request`` — with a monotonic duration, a
parent/child relationship, free-form attributes and counters.  Spans
nest through a per-thread stack kept by the :class:`Tracer`: the span
active on the current thread when a new one opens becomes its parent,
so a ``repro report --trace`` run yields one tree per root operation
(engine run, pipeline run, HTTP request) without any caller threading
IDs around.

Finished spans land in a thread-safe :class:`TraceCollector` and can be
exported as JSON Lines — one self-contained JSON object per span — via
:meth:`Tracer.write` / :func:`read_trace`.

Disabled tracing is a shim, not a branch.  The module-level default
tracer is :data:`NULL_TRACER`, whose ``span()`` returns one reusable
no-op span; instrumented code is written unconditionally (``with
get_tracer().span(...)``) and pays only an attribute lookup and a no-op
context manager when tracing is off (measured in
``benchmarks/bench_obs.py``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceCollector",
    "Tracer",
    "get_tracer",
    "read_trace",
    "set_tracer",
    "span",
    "tracing",
]


class Span:
    """One timed, attributed region of work; used as a context manager."""

    __slots__ = (
        "name", "span_id", "parent_id", "ts", "attrs", "counters",
        "status", "error", "duration_ms", "_tracer", "_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.ts = time.time()
        self.attrs = attrs
        self.counters: dict[str, int] = {}
        self.status = "ok"
        self.error: str | None = None
        self.duration_ms = 0.0
        self._tracer = tracer
        self._start = 0.0

    # -- recording ----------------------------------------------------------------

    def set(self, key: str, value: object) -> "Span":
        """Attach one attribute (last write wins)."""
        self.attrs[key] = value
        return self

    def add(self, counter: str, amount: int = 1) -> "Span":
        """Bump one per-span counter (e.g. ``cache_hits``)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount
        return self

    # -- context manager ----------------------------------------------------------

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.duration_ms = (time.perf_counter() - self._start) * 1000.0
        if exc is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return None  # never swallow

    def to_dict(self) -> dict[str, object]:
        """The JSONL line for this span (plain JSON data)."""
        out: dict[str, object] = {
            "trace": self._tracer.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": round(self.ts, 6),
            "duration_ms": round(self.duration_ms, 3),
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_ms:.3f}ms)"
        )


class TraceCollector:
    """Thread-safe append-only store of finished spans (as dicts)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[dict[str, object]] = []

    def append(self, span_dict: dict[str, object]) -> None:
        with self._lock:
            self._spans.append(span_dict)

    def snapshot(self) -> list[dict[str, object]]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class Tracer:
    """An enabled tracer: hands out spans, keeps the per-thread stack."""

    enabled = True

    def __init__(self, trace_id: str | None = None) -> None:
        if trace_id is None:
            # Wall-clock based: unique enough across runs, and stable
            # within one (no randomness — see the determinism rules).
            trace_id = f"t{time.time_ns():x}"
        self.trace_id = trace_id
        self.collector = TraceCollector()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span lifecycle -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Span | None:
        """The span active on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: object) -> Span:
        """A new span, parented to this thread's active span."""
        parent = self.current
        return Span(
            self,
            name,
            str(next(self._ids)),
            parent.span_id if parent is not None else None,
            attrs,
        )

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - mis-nested exit
            stack.remove(span)
        self.collector.append(span.to_dict())

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """JSON-shaped tracer state (the ``/v1/metrics`` trace block)."""
        return {
            "enabled": True,
            "trace_id": self.trace_id,
            "spans": len(self.collector),
        }

    def write(self, path: str | Path) -> Path:
        """Export every collected span as JSON Lines; returns the path."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.collector.snapshot()
        with path.open("w", encoding="utf-8") as fh:
            for span_dict in spans:
                fh.write(json.dumps(span_dict, sort_keys=True) + "\n")
        return path

    def __repr__(self) -> str:
        return f"Tracer(trace_id={self.trace_id}, spans={len(self.collector)})"


class _NullSpan:
    """The one no-op span every disabled-path ``with`` statement reuses."""

    __slots__ = ()

    span_id = None
    parent_id = None
    status = "ok"

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def set(self, _key: str, _value: object) -> "_NullSpan":
        return self

    def add(self, _counter: str, _amount: int = 1) -> "_NullSpan":
        return self


class NullTracer:
    """The disabled shim: same surface as :class:`Tracer`, does nothing."""

    enabled = False
    trace_id = None
    current = None

    _SPAN = _NullSpan()

    def span(self, _name: str, **_attrs: object) -> _NullSpan:
        return self._SPAN

    def snapshot(self) -> dict[str, object]:
        return {"enabled": False}

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled tracer; also the default active tracer.
NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER
_active_guard = threading.Lock()


def get_tracer() -> Tracer | NullTracer:
    """The process's active tracer (the disabled shim by default)."""
    return _active


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the active one; returns the previous."""
    global _active
    with _active_guard:
        previous, _active = _active, tracer
    return previous


def span(name: str, **attrs: object):
    """``get_tracer().span(...)`` — the one-liner for instrumented code."""
    return _active.span(name, **attrs)


class tracing:
    """Scope a tracer: install on enter, write + restore on exit.

    ``tracing(None)`` is a transparent no-op (the active tracer stays),
    so callers can thread an optional ``--trace PATH`` straight
    through::

        with tracing(args.trace):
            api.report(...)
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        if tracer is None and (path is not None):
            tracer = Tracer()
        self.tracer = tracer
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer | NullTracer:
        if self.tracer is None:
            return get_tracer()
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *_exc) -> None:
        if self.tracer is None:
            return None
        set_tracer(self._previous if self._previous is not None else NULL_TRACER)
        if self.path is not None:
            self.tracer.write(self.path)
        return None


def read_trace(path: str | Path) -> list[dict[str, object]]:
    """Parse a JSONL trace file back into span dicts (blank-line safe)."""
    spans: list[dict[str, object]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans
