"""The generation engine: plan → executor → dataset.

:class:`GenerationEngine` is the single entry point the generator, the
CLI and the benchmark fixtures all route through.  Each requested plan
goes to its executor (serial or a process pool, byte-identical either
way).  No generator (and hence no universe) is constructed until a run
or the dataset's ground truth first needs one.
"""

from __future__ import annotations

from typing import Iterable

from ..core.dataset import BrowsingDataset
from ..core.rankedlist import RankedList
from ..core.truth import GroundTruth
from ..core.types import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from ..obs import get_tracer
from ..synth.generator import GeneratorConfig, TelemetryGenerator
from ..synth.traffic import global_distributions
from .executor import ParallelExecutor, SerialExecutor, generator_for
from .plan import SlicePlan


class GenerationEngine:
    """Slice generation, in process or on a process pool.

    ``jobs > 1`` runs the plan on a :class:`ParallelExecutor` of that
    many workers; anything else scores in process.  Both produce
    byte-identical slices.
    """

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        *,
        jobs: int | None = None,
        generator: TelemetryGenerator | None = None,
    ) -> None:
        if generator is not None:
            config = generator.config
        self.config = config or GeneratorConfig()
        self.executor = (
            ParallelExecutor(jobs=jobs) if jobs is not None and jobs > 1
            else SerialExecutor()
        )
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

        Under an active tracer the run is one ``engine.run`` span and
        every slice an ``engine.generate_slice`` span (emitted by the
        executor, wherever it runs).
        """
        tracer = get_tracer()
        with tracer.span(
            "engine.run", fingerprint=self.fingerprint, slices=len(plan)
        ):
            # Build the generator here, before a process pool forks:
            # workers inherit it (and its universe) through
            # ``_GENERATORS`` instead of each building their own.
            produced = self.executor.execute(
                self.config, plan, generator=self.generator, tracer=tracer,
            )
            return {b: produced[b] for b in plan.breakdowns()}

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

        The source engine datasets defer to: it needs the universe, so
        the generator is built (if no run has built it) only when the
        table is first read (e.g. by ``save_dataset``).
        """
        return self.generator.ground_truth(sorted(dataset.all_sites()))

    def __repr__(self) -> str:
        return (
            f"GenerationEngine(fingerprint={self.fingerprint}, "
            f"executor={self.executor.name})"
        )
