"""Merging per-worker metrics snapshots into one fleet-wide view.

Each worker keeps its own span aggregate (a forked worker empties the
one it inherited) and :class:`~repro.service.cache.PayloadCache`;
nothing is shared at runtime (sharing would mean cross-process locks
on the hot path).  The fleet view is assembled *at read time*: the
worker answering a public ``/v1/metrics`` request collects every peer's
local snapshot over the internal ports and folds them together here.

Merging is pure counter arithmetic.  The ``spans`` blocks merge by
name — counts, errors, span counters, ``sum_ms`` and latency bucket
counts add, ``max_ms`` takes the max — and the merged aggregate is
rendered by the single-process
:func:`~repro.service.query.span_metrics`, so ``endpoints``,
``counters`` and ``requests_total`` are derived alike at every worker
count.  Cache and artifact-store counters add (``capacity`` and
``max_bytes`` too: the fleet's budget is the sum of its workers').
Latency *percentiles* would not merge; fixed histogram buckets do,
which is why the buckets exist.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..service.query import span_metrics


def _merge_span(into: dict, snap: Mapping) -> None:
    """Fold one span name's aggregate entry into ``into``."""
    for key in ("count", "errors"):
        into[key] = into.get(key, 0) + snap.get(key, 0)
    into["sum_ms"] = round(into.get("sum_ms", 0.0) + snap.get("sum_ms", 0.0), 3)
    into["max_ms"] = round(max(into.get("max_ms", 0.0), snap.get("max_ms", 0.0)), 3)
    for block in ("buckets", "counters"):
        for name, amount in snap.get(block, {}).items():
            merged = into.setdefault(block, {})
            merged[name] = merged.get(name, 0) + amount


def _merge_counts(into: dict, snap: Mapping) -> None:
    """Sum numeric fields; ``None`` (an unset budget) stays ``None``,
    and non-numbers (the store's ``root``) are skipped."""
    for name, value in snap.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        current = into.get(name)
        into[name] = value if current is None else current + value


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict[str, object]:
    """One fleet-wide snapshot from per-worker ``metrics_snapshot()`` dicts.

    The result has the same shape as a single-process ``/v1/metrics``
    body (``endpoints`` / ``counters`` / ``requests_total`` / ``spans``
    / ``cache`` / ``artifact_store``), so anything scraping the
    single-process payload reads the merged one unchanged.
    Worker-local blocks that cannot be meaningfully summed (``trace``)
    are dropped.
    """
    spans: dict[str, dict] = {}
    cache: dict[str, object] = {}
    store: dict[str, object] = {}
    datasets: list[Mapping] = []
    for snap in snapshots:
        for name, entry in snap.get("spans", {}).items():
            _merge_span(spans.setdefault(name, {}), entry)
        _merge_counts(cache, snap.get("cache", {}))
        if "artifact_store" in snap:
            store.setdefault("root", snap["artifact_store"].get("root"))
            _merge_counts(store, snap["artifact_store"])
        if "dataset" in snap:
            datasets.append(snap["dataset"])
    merged = span_metrics({name: spans[name] for name in sorted(spans)})
    merged["cache"] = cache
    if store:
        merged["artifact_store"] = store
    if datasets:
        # Versions do NOT sum: the fleet view reports the newest one,
        # the per-worker spread, and whether every worker has converged
        # to the same version (the post-ingest smoke assertion).
        versions = sorted({int(d.get("version", 1)) for d in datasets})
        newest = max(
            datasets, key=lambda d: int(d.get("version", 1))
        )
        merged["dataset"] = {
            "version": versions[-1],
            "versions": versions,
            "converged": len(versions) == 1,
            "months": list(newest.get("months", [])),
            "pending_slices": sum(
                int(d.get("pending_slices", 0)) for d in datasets
            ),
        }
    return merged
