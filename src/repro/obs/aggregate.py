"""The span aggregate: every closed span, rolled up by name.

Every span, traced or not, closes into the process-wide
:data:`AGGREGATE`: per name a count, an error count, the summed span
counters and a fixed-bucket latency histogram.  All of it adds across
processes (maxima take the max), so fleet workers' aggregates merge
exactly.  ``/v1/metrics`` renders it, and ``repro trace summarize``
folds trace files into a fresh one (:meth:`SpanAggregate.of`).
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Iterable, Mapping

__all__ = ["AGGREGATE", "LATENCY_BUCKETS_MS", "SpanAggregate"]

#: Fixed latency bucket upper bounds, in milliseconds; an implicit
#: +inf bucket catches the tail.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

_BUCKET_NAMES = [f"le_{bound:g}ms" for bound in LATENCY_BUCKETS_MS] + [
    f"gt_{LATENCY_BUCKETS_MS[-1]:g}ms"]


class _Totals:
    """One span name's running totals (guarded by the aggregate's lock)."""

    __slots__ = ("count", "errors", "sum_ms", "max_ms", "buckets", "counters")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0
        self.buckets = [0] * len(_BUCKET_NAMES)
        self.counters: dict[str, int] = {}

    def snapshot(self) -> dict[str, object]:
        out: dict[str, object] = {
            "count": self.count,
            "errors": self.errors,
            "sum_ms": round(self.sum_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "buckets": dict(zip(_BUCKET_NAMES, self.buckets)),
        }
        if self.counters:
            out["counters"] = dict(sorted(self.counters.items()))
        return out


class SpanAggregate:
    """Thread-safe per-name roll-up of closed spans; see the module doc."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, _Totals] = {}

    def record(
        self,
        name: str,
        duration_ms: float,
        error: bool = False,
        counters: Mapping[str, int] | None = None,
    ) -> None:
        """Add one closed span."""
        with self._lock:
            totals = self._totals.get(name)
            if totals is None:
                totals = self._totals[name] = _Totals()
            totals.count += 1
            if error:
                totals.errors += 1
            totals.sum_ms += duration_ms
            if duration_ms > totals.max_ms:
                totals.max_ms = duration_ms
            totals.buckets[
                bisect.bisect_left(LATENCY_BUCKETS_MS, duration_ms)
            ] += 1
            if counters:
                for key, amount in counters.items():
                    totals.counters[key] = totals.counters.get(key, 0) + amount

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Every name's totals as plain JSON data, sorted by name."""
        with self._lock:
            return {
                name: self._totals[name].snapshot()
                for name in sorted(self._totals)
            }

    def clear(self) -> None:
        """Forget every span (a forked fleet worker starts empty)."""
        with self._lock:
            self._totals.clear()

    @classmethod
    def of(cls, spans: Iterable[Mapping]) -> "SpanAggregate":
        """A fresh aggregate of span dicts, e.g. read back from trace files."""
        aggregate = cls()
        for span in spans:
            aggregate.record(
                str(span.get("name", "?")), float(span.get("duration_ms", 0)),
                span.get("status") == "error", span.get("counters"),
            )
        return aggregate


#: The process-wide aggregate every span closes into.
AGGREGATE = SpanAggregate()

# A fork while another thread records would hand the child a lock held
# forever; hold it across the fork, so the child's copy is consistent.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=AGGREGATE._lock.acquire,
        after_in_parent=AGGREGATE._lock.release,
        after_in_child=AGGREGATE._lock.release,
    )
