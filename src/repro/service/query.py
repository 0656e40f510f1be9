"""The query service: every read path of the serving layer.

:class:`QueryService` wraps a loaded :class:`BrowsingDataset` (held in
memory, or memory-mapped — ``repro serve`` over a columnar directory
opens the dataset read-only via mmap, so N worker processes share one
physical copy of the pages and cold start never parses a list) plus
the reproduction pipeline, and answers four families of queries:

* **rankings** — the top of one (country, platform, metric, month) list;
* **site** — one site's rank across every country of a slice;
* **distribution** — the global traffic-volume curve of a (platform,
  metric) pair;
* **analysis** — any registered pipeline task, resolved through the
  shared :class:`~repro.pipeline.PipelineRunner` so warm artifacts are
  served without recomputation.

Every public endpoint returns the exact *bytes* the HTTP layer writes:
canonical JSON plus a trailing newline.  Rendered payloads live in a
thread-safe LRU (:class:`~repro.service.cache.PayloadCache`) behind a
per-key single-flight lock, so N concurrent identical requests compute
once and all receive byte-identical bodies.

The service records no metric of its own: ``/v1/metrics``
(:meth:`QueryService.metrics_snapshot`) renders the process-wide span
aggregate (:mod:`repro.obs.aggregate`) through :func:`span_metrics`.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Mapping

from ..core.dataset import BrowsingDataset
from ..core.types import Metric, Month, Platform
from ..obs import AGGREGATE, get_tracer
from ..pipeline import (
    ArtifactStore,
    PipelineRunner,
    TaskContext,
    TaskStatus,
    canonical_json,
    default_registry,
)
from .cache import PayloadCache, PayloadKey
from .errors import BadRequest, NotFound, ServiceError, Unavailable, not_found

#: Default number of ranks returned by a rankings query.
DEFAULT_TOP = 50

#: Ranks at which the distribution endpoint samples the cumulative curve.
_CURVE_SAMPLE_RANKS = (1, 6, 10, 100, 1_000, 10_000, 100_000, 1_000_000)


def render_payload(payload: object) -> bytes:
    """The one byte encoding every endpoint serves (canonical JSON)."""
    return canonical_json(payload).encode("utf-8") + b"\n"


def span_metrics(spans: Mapping[str, Mapping]) -> dict[str, object]:
    """The ``/v1/metrics`` blocks read off a span aggregate snapshot.

    ``endpoints`` are the handler's ``http.<label>`` spans, one per
    response, so ``requests_total`` is their count; ``counters`` count
    ``service.reload`` spans (a newly ingested version adopted) and the
    ``pipeline.run`` spans of analysis renders, with their
    ``executed``/``cached`` counters; ``spans`` is the whole aggregate.
    A fleet renders its merged aggregate through this same function.
    """
    endpoints = {
        name[len("http."):]: {
            "requests": entry["count"], "errors": entry["errors"],
            "latency": {k: entry[k] for k in ("count", "sum_ms", "max_ms",
                                              "buckets")},
        }
        for name, entry in spans.items() if name.startswith("http.")
    }
    runs = spans.get("pipeline.run", {})
    ran = runs.get("counters", {})
    return {
        "endpoints": endpoints,
        "counters": {
            "dataset_reloads": spans.get("service.reload", {}).get("count", 0),
            "pipeline_cached": ran.get("cached", 0),
            "pipeline_executed": ran.get("executed", 0),
            "pipeline_runs": runs.get("count", 0),
        },
        "requests_total": sum(e["requests"] for e in endpoints.values()),
        "spans": dict(spans),
    }


class QueryService:
    """Cached read-path over one dataset + artifact store; see module doc."""

    def __init__(
        self,
        dataset: BrowsingDataset,
        *,
        store: ArtifactStore | str | Path | None = None,
        registry=None,
        config=None,
        month: Month | None = None,
        cache: PayloadCache | int = 256,
        cache_bytes: int | None = None,
        root: str | Path | None = None,
        version: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.registry = registry if registry is not None else default_registry()
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store = store
        self.runner = PipelineRunner(self.registry, store=store)
        self.ctx = TaskContext(dataset, config=config, month=month)
        self.cache = (
            cache if isinstance(cache, PayloadCache)
            else PayloadCache(cache, max_bytes=cache_bytes)
        )
        self._flights: dict[PayloadKey, threading.Lock] = {}
        self._flights_guard = threading.Lock()
        # -- dataset versioning (``?as_of=``) --------------------------
        # ``root`` (the saved dataset directory, defaulting to a loaded
        # dataset's own root) lets the service load archived versions
        # on demand and pick up ingests; ``version`` pins the service
        # to one version (it never follows the live manifest).
        if root is None:
            root = dataset.root
        self.root = Path(root) if root is not None else None
        self._config = config
        self._month_pin = month
        self._pinned = version is not None
        self._versions_lock = threading.Lock()
        self._latest = dataset.version
        self._contexts: dict[int, TaskContext] = {self._latest: self.ctx}
        self._manifest_stat = self._stat_manifest()
        if version is not None and int(version) != self._latest:
            wanted, ctx = self._resolve(version)
            self._latest = wanted
            self.ctx = ctx
            self.dataset = ctx.dataset

    # -- dataset versions ---------------------------------------------------------

    def _manifest_path(self) -> Path | None:
        if self.root is None:
            return None
        for name in ("manifest.bin", "manifest.json"):
            path = self.root / name
            if path.is_file():
                return path
        return None

    def _stat_manifest(self) -> tuple[int, int] | None:
        path = self._manifest_path()
        if path is None:
            return None
        stat = path.stat()
        return (stat.st_mtime_ns, stat.st_size)

    def _refresh(self) -> None:
        """Follow the live manifest: adopt a newly-ingested version.

        An ingest lands its manifest via ``os.replace``, so the stat
        either shows the complete old file or the complete new one —
        never a torn state.  Pinned services (``version=``) and
        in-memory datasets (no root) never refresh.
        """
        if self._pinned or self.root is None:
            return
        stat = self._stat_manifest()
        if stat is None or stat == self._manifest_stat:
            return
        with self._versions_lock:
            stat = self._stat_manifest()
            if stat == self._manifest_stat:
                return
            from ..export.io import load_dataset

            with get_tracer().span("service.reload") as span:
                dataset = load_dataset(self.root)
                ctx = TaskContext(
                    dataset, config=self._config, month=self._month_pin
                )
                version = dataset.version
                span.set("version", version)
            self._contexts[version] = ctx
            self._latest = version
            self.dataset = dataset
            self.ctx = ctx
            self._manifest_stat = stat

    def _resolve(self, as_of) -> tuple[int, TaskContext]:
        """The (version, context) a request pins; default is latest."""
        if as_of is None:
            self._refresh()
            return self._latest, self._contexts[self._latest]
        try:
            wanted = int(as_of)
        except (TypeError, ValueError):
            raise BadRequest(
                f"as_of must be an integer dataset version, got {as_of!r}"
            ) from None
        ctx = self._contexts.get(wanted)
        if ctx is not None:
            return wanted, ctx
        if self.root is None:
            raise not_found(
                "dataset version", str(as_of),
                [str(v) for v in sorted(self._contexts)],
            )
        self._refresh()
        with self._versions_lock:
            ctx = self._contexts.get(wanted)
            if ctx is not None:
                return wanted, ctx
            from ..export.io import (
                DatasetError, dataset_versions, load_dataset,
            )

            try:
                available = dataset_versions(self.root)
            except DatasetError:
                available = tuple(sorted(self._contexts))
            if wanted not in available:
                raise not_found(
                    "dataset version", str(as_of),
                    [str(v) for v in available],
                )
            dataset = load_dataset(self.root, as_of=wanted)
            ctx = TaskContext(
                dataset, config=self._config, month=self._month_pin
            )
            self._contexts[wanted] = ctx
            return wanted, ctx

    # -- parameter coercion -------------------------------------------------------

    def _platform(
        self, value: Platform | str | None, ctx: TaskContext | None = None
    ) -> Platform:
        ctx = ctx or self.ctx
        if value is None:
            return ctx.primary_platform
        if isinstance(value, str):
            try:
                value = Platform(value)
            except ValueError:
                raise BadRequest(
                    f"unparseable platform {value!r}",
                    choices=[p.value for p in Platform],
                ) from None
        if value not in ctx.dataset.platforms:
            raise not_found(
                "platform", value.value,
                [p.value for p in ctx.dataset.platforms],
            )
        return value

    def _metric(
        self, value: Metric | str | None, ctx: TaskContext | None = None
    ) -> Metric:
        ctx = ctx or self.ctx
        if value is None:
            return ctx.primary_metric
        if isinstance(value, str):
            try:
                value = Metric(value)
            except ValueError:
                raise BadRequest(
                    f"unparseable metric {value!r}",
                    choices=[m.value for m in Metric],
                ) from None
        if value not in ctx.dataset.metrics:
            raise not_found(
                "metric", value.value,
                [m.value for m in ctx.dataset.metrics],
            )
        return value

    def _month(
        self, value: Month | str | None, ctx: TaskContext | None = None
    ) -> Month:
        ctx = ctx or self.ctx
        if value is None:
            return ctx.month
        if isinstance(value, str):
            try:
                value = Month.parse(value)
            except ValueError:
                raise BadRequest(
                    f"month must look like 2022-02, got {value!r}"
                ) from None
        if value not in ctx.dataset.months:
            raise not_found(
                "month", value, [str(m) for m in ctx.dataset.months]
            )
        return value

    def _country(self, value: str, ctx: TaskContext | None = None) -> str:
        ctx = ctx or self.ctx
        country = value.upper()
        if country not in ctx.dataset.countries:
            raise not_found("country", value, ctx.dataset.countries)
        return country

    def _task(self, name: str):
        if name not in self.registry:
            raise not_found("task", name, sorted(self.registry.names()))
        return self.registry.get(name)

    # -- caching ------------------------------------------------------------------

    def _flight(self, key: PayloadKey) -> threading.Lock:
        with self._flights_guard:
            lock = self._flights.get(key)
            if lock is None:
                lock = self._flights[key] = threading.Lock()
            return lock

    def _cached(self, key: PayloadKey, build: Callable[[], object]) -> bytes:
        """LRU + single-flight: build each payload at most once at a time."""
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        try:
            with self._flight(key):
                hit = self.cache.get(key, record=False)
                if hit is not None:
                    return hit
                return self.cache.put(key, render_payload(build()))
        finally:
            # Always discard the flight lock — a build() that raises
            # (bad site name, failing task) must not leave its key in
            # _flights forever, or an error scan grows it unboundedly.
            with self._flights_guard:
                self._flights.pop(key, None)

    # -- endpoints ----------------------------------------------------------------

    def rankings(
        self,
        country: str,
        *,
        platform: Platform | str | None = None,
        metric: Metric | str | None = None,
        month: Month | str | None = None,
        top: int | str = DEFAULT_TOP,
        as_of: int | str | None = None,
    ) -> bytes:
        """The head of one (country, platform, metric, month) rank list."""
        version, ctx = self._resolve(as_of)
        country = self._country(country, ctx)
        platform = self._platform(platform, ctx)
        metric = self._metric(metric, ctx)
        month = self._month(month, ctx)
        try:
            top = int(top)
        except (TypeError, ValueError):
            raise BadRequest(f"top must be an integer, got {top!r}") from None
        if top < 1:
            raise BadRequest(f"top must be >= 1, got {top}")
        key = ("rankings", version, country, platform.value, metric.value,
               str(month), str(top))

        def build() -> dict[str, object]:
            ranked = ctx.dataset.get_or_none(country, platform, metric, month)
            if ranked is None:
                raise NotFound(
                    f"no rank list for {country}/{platform.value}/"
                    f"{metric.value}/{month}"
                )
            head = ranked.top(min(top, len(ranked)))
            return {
                "country": country,
                "platform": platform.value,
                "metric": metric.value,
                "month": str(month),
                "total_sites": len(ranked),
                "top": len(head),
                "sites": list(head.sites),
            }

        return self._cached(key, build)

    def site(
        self,
        site: str,
        *,
        platform: Platform | str | None = None,
        metric: Metric | str | None = None,
        month: Month | str | None = None,
        as_of: int | str | None = None,
    ) -> bytes:
        """One site's rank in every country of a (platform, metric, month)."""
        if not site:
            raise BadRequest("site must be non-empty")
        version, ctx = self._resolve(as_of)
        platform = self._platform(platform, ctx)
        metric = self._metric(metric, ctx)
        month = self._month(month, ctx)
        key = ("site", version, site, platform.value, metric.value, str(month))

        def build() -> dict[str, object]:
            ranks: dict[str, int | None] = {}
            best: tuple[int, str] | None = None
            for country in ctx.dataset.countries:
                ranked = ctx.dataset.get_or_none(country, platform, metric, month)
                rank = ranked.rank_of(site) if ranked is not None else None
                ranks[country] = rank
                if rank is not None and (best is None or rank < best[0]):
                    best = (rank, country)
            present = sum(1 for r in ranks.values() if r is not None)
            if present == 0:
                raise NotFound(
                    f"site {site!r} is not ranked in any country for "
                    f"{platform.value}/{metric.value}/{month}"
                )
            return {
                "site": site,
                "platform": platform.value,
                "metric": metric.value,
                "month": str(month),
                "ranks": ranks,
                "countries_ranked": present,
                "best": {"country": best[1], "rank": best[0]},
            }

        return self._cached(key, build)

    def distribution(
        self,
        *,
        platform: Platform | str | None = None,
        metric: Metric | str | None = None,
        as_of: int | str | None = None,
    ) -> bytes:
        """The global cumulative traffic curve for a (platform, metric)."""
        version, ctx = self._resolve(as_of)
        platform = self._platform(platform, ctx)
        metric = self._metric(metric, ctx)
        key = ("distribution", version, platform.value, metric.value)

        def build() -> dict[str, object]:
            dist = ctx.dataset.distribution(platform, metric)
            return {
                "platform": platform.value,
                "metric": metric.value,
                "total_sites": dist.total_sites,
                "anchors": [[rank, share] for rank, share in dist.anchors],
                "cumulative_share": {
                    str(rank): round(dist.cumulative_share(rank), 6)
                    for rank in _CURVE_SAMPLE_RANKS
                    if rank <= dist.total_sites
                },
            }

        return self._cached(key, build)

    def analysis(
        self, task: str, *, as_of: int | str | None = None
    ) -> bytes:
        """One pipeline task's artifact, served warm when possible."""
        version, ctx = self._resolve(as_of)
        spec = self._task(task)
        key = ("analysis", version, task)

        def build() -> dict[str, object]:
            report = self.runner.run(ctx, [task])
            record = report.records[task]
            if record.status is TaskStatus.FAILED:
                raise ServiceError(f"task {task!r} failed: {record.error}")
            if record.status is TaskStatus.SKIPPED:
                raise Unavailable(
                    f"task {task!r} unavailable: {record.error}"
                )
            return {
                "task": task,
                "title": spec.title or task,
                "section": spec.section,
                "key": record.key,
                "result": report.results[task],
            }

        return self._cached(key, build)

    def analyses(self) -> bytes:
        """The task catalogue: names, sections, dependencies."""

        def build() -> dict[str, object]:
            return {
                "tasks": [
                    {
                        "name": task.name,
                        "title": task.title or task.name,
                        "section": task.section,
                        "deps": list(task.deps),
                    }
                    for task in sorted(self.registry, key=lambda t: t.name)
                ]
            }

        return self._cached(("analyses",), build)

    def healthz(self, *, as_of: int | str | None = None) -> bytes:
        """Liveness + dataset identity; never cached."""
        from .. import __version__

        version, ctx = self._resolve(as_of)
        dataset = ctx.dataset
        payload: dict[str, object] = {
            "status": "ok",
            "version": __version__,
            "storage": dataset.storage,
            "fingerprint": ctx.fingerprint,
            "dataset_version": version,
            "countries": len(dataset.countries),
            "platforms": [p.value for p in dataset.platforms],
            "metrics": [m.value for m in dataset.metrics],
            "months": [str(m) for m in dataset.months],
            "lists": len(dataset),
            "tasks": len(self.registry),
            "pending_slices": dataset.pending,
        }
        return render_payload(payload)

    def metrics_payload(self) -> bytes:
        """The ``/v1/metrics`` body: counters, histograms, cache stats."""
        return render_payload(self.metrics_snapshot())

    def metrics_snapshot(self) -> dict[str, object]:
        """The ``/v1/metrics`` dict: the span aggregate plus this
        service's cache, dataset and artifact-store blocks.

        The fleet layer merges these per-worker snapshots into one
        fleet-wide view (see :mod:`repro.fleet.metrics`).
        """
        self._refresh()
        dataset = self.ctx.dataset
        snapshot = span_metrics(AGGREGATE.snapshot())
        snapshot["cache"] = self.cache.snapshot()
        snapshot["dataset"] = {
            "version": self._latest,
            "months": [str(m) for m in dataset.months],
            "pending_slices": dataset.pending,
        }
        snapshot["trace"] = get_tracer().snapshot()
        if self.store is not None:
            snapshot["artifact_store"] = {
                "root": str(self.store.root),
                "hits": self.store.stats.hits,
                "misses": self.store.stats.misses,
                "writes": self.store.stats.writes,
            }
        return snapshot

    def __repr__(self) -> str:
        return (
            f"QueryService(fingerprint={self.ctx.fingerprint}, "
            f"lists={len(self.dataset)}, cache={self.cache!r})"
        )


__all__ = [
    "DEFAULT_TOP",
    "QueryService",
    "render_payload",
    "span_metrics",
]
