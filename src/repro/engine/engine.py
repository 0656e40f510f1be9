"""The generation engine: plan → (cache | executor) → dataset.

:class:`GenerationEngine` is the single entry point the generator, the
CLI and the benchmark fixtures all route through.  For each requested
plan it serves what it can from the content-addressed slice cache and
hands only the misses to its executor; everything a run produces is
written back to the cache.  The engine is *lazy about the expensive
parts*: no generator (and hence no universe) is constructed until a
cache miss actually requires scoring — or the dataset's ground truth is
first read — so a warm cache answers a full grid without paying the
full-scale universe build.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable

from ..core.dataset import BrowsingDataset
from ..core.errors import GenerationError
from ..core.rankedlist import RankedList
from ..core.truth import GroundTruth
from ..core.types import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from ..obs import get_tracer
from ..synth.generator import GeneratorConfig, TelemetryGenerator
from ..synth.traffic import global_distributions
from .cache import SliceCache
from .executor import ParallelExecutor, SerialExecutor, generator_for
from .plan import SlicePlan


class GenerationEngine:
    """Cache-aware, executor-pluggable slice generation."""

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        *,
        executor: SerialExecutor | ParallelExecutor | None = None,
        jobs: int | None = None,
        cache: SliceCache | str | Path | None = None,
        generator: TelemetryGenerator | None = None,
    ) -> None:
        if generator is not None:
            config = generator.config
        self.config = config or GeneratorConfig()
        if jobs is not None:
            if executor is not None:
                raise GenerationError(
                    "pass either executor= or jobs=, not both"
                )
            executor = ParallelExecutor(jobs=jobs) if jobs > 1 else None
        self.executor = executor or SerialExecutor()
        if isinstance(cache, (str, Path)):
            cache = SliceCache(cache)
        self.cache = cache
        self._generator = generator
        self._fingerprint: str | None = None

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = self.config.fingerprint()
        return self._fingerprint

    @property
    def generator(self) -> TelemetryGenerator:
        """The engine's generator, built on first use (universe build!)."""
        if self._generator is None:
            self._generator = generator_for(self.config)
        return self._generator

    def metadata(self) -> dict[str, object]:
        """Dataset provenance: generation knobs plus the fingerprint."""
        return {
            "seed": self.config.seed,
            "emit": self.config.emit,
            "list_size": self.config.list_size,
            "fingerprint": self.fingerprint,
        }

    # -- execution ----------------------------------------------------------------

    def run(self, plan: SlicePlan) -> dict[Breakdown, RankedList]:
        """Produce every slice of ``plan``, in plan order.

        Cache hits are served as-is; only the remaining breakdowns reach
        the executor, and everything generated is written back.  Under
        an active tracer every slice gets an ``engine.generate_slice``
        span carrying its breakdown and a ``cache: hit|miss`` attribute
        (miss spans come from the executor, wherever it runs).
        """
        tracer = get_tracer()
        with tracer.span(
            "engine.run", fingerprint=self.fingerprint, slices=len(plan)
        ) as root:
            results: dict[Breakdown, RankedList] = {}
            if self.cache is not None:
                for breakdown in plan.breakdowns():
                    start = time.perf_counter()
                    cached = self.cache.get(self.fingerprint, breakdown)
                    if cached is not None:
                        results[breakdown] = cached
                        root.add("cache_hits")
                        tracer.record(
                            "engine.generate_slice",
                            time.perf_counter() - start,
                            country=breakdown.country,
                            platform=breakdown.platform.value,
                            metric=breakdown.metric.value,
                            month=str(breakdown.month),
                            cache="hit",
                        )
                misses = plan.without(results)
            else:
                misses = plan
            if len(misses):
                root.add("cache_misses", len(misses))
                # Build the generator here, before a process pool
                # forks: workers inherit it (and its universe) through
                # ``_GENERATORS`` instead of each building their own.
                produced = self.executor.execute(
                    self.config, misses,
                    generator=self.generator, tracer=tracer,
                )
                if self.cache is not None:
                    with tracer.span(
                        "engine.cache_write", slices=len(produced)
                    ):
                        for breakdown, ranked in produced.items():
                            self.cache.put(self.fingerprint, breakdown, ranked)
                results.update(produced)
            return {b: results[b] for b in plan.breakdowns()}

    def rank_list(
        self,
        country: str,
        platform: Platform,
        metric: Metric,
        month: Month = REFERENCE_MONTH,
    ) -> RankedList:
        """One slice, cache-aware."""
        breakdown = Breakdown(country, platform, metric, month)
        return self.run(SlicePlan.from_breakdowns((breakdown,)))[breakdown]

    # -- datasets -----------------------------------------------------------------

    def generate(
        self,
        *,
        countries: Iterable[str] | None = None,
        platforms: Iterable[Platform] = Platform.studied(),
        metrics: Iterable[Metric] = Metric.studied(),
        months: Iterable[Month] = (REFERENCE_MONTH,),
    ) -> BrowsingDataset:
        """An eagerly materialised dataset for the requested grid.

        The grid knobs are keyword-only: every subsystem spells them
        the same way, and call sites stay readable as the grid grows
        dimensions.
        """
        return self.generate_plan(
            SlicePlan.from_grid(countries, platforms, metrics, months)
        )

    def generate_plan(self, plan: SlicePlan) -> BrowsingDataset:
        return BrowsingDataset(
            self.run(plan), global_distributions(), self.metadata(),
            ground_truth=self.ground_truth,
        )

    def ground_truth(self, dataset: BrowsingDataset) -> GroundTruth:
        """The ground-truth table for ``dataset``'s sites.

        The source engine datasets defer to: it needs the universe, so a
        warm-cache run builds it only when the table is first read
        (e.g. by ``save_dataset``).
        """
        return self.generator.ground_truth(sorted(dataset.all_sites()))

    def generate_lazy(
        self,
        *,
        countries: Iterable[str] | None = None,
        platforms: Iterable[Platform] = Platform.studied(),
        metrics: Iterable[Metric] = Metric.studied(),
        months: Iterable[Month] = (REFERENCE_MONTH,),
    ) -> "LazyBrowsingDataset":
        """A dataset whose slices materialise on first access."""
        from .lazy import LazyBrowsingDataset

        plan = SlicePlan.from_grid(countries, platforms, metrics, months)
        return LazyBrowsingDataset(self, plan)

    def __repr__(self) -> str:
        cache = str(self.cache.root) if self.cache is not None else None
        return (
            f"GenerationEngine(fingerprint={self.fingerprint}, "
            f"executor={self.executor.name}, cache={cache!r})"
        )
