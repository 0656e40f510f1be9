"""The generation engine: plan → batched scoring → dataset.

:class:`GenerationEngine` is the single entry point the generator, the
CLI and the benchmark fixtures all route through.  A plan runs in the
calling process, one batched matrix pass per country work unit
(:meth:`TelemetryGenerator.rank_lists_batch`).  No generator (and hence
no universe) is constructed until a run or the dataset's ground truth
first needs one.
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
from .plan import SlicePlan

#: Generators are deterministic functions of their config and carry the
#: memoised universe plus per-country state, so the process keeps one
#: per fingerprint and engines over the same config share it.
_GENERATORS: dict[str, TelemetryGenerator] = {}


def generator_for(config: GeneratorConfig) -> TelemetryGenerator:
    """This process's memoised generator for ``config``."""
    fingerprint = config.fingerprint()
    generator = _GENERATORS.get(fingerprint)
    if generator is None:
        generator = TelemetryGenerator(config)
        _GENERATORS[fingerprint] = generator
    return generator


class GenerationEngine:
    """Slice generation in the calling process, one country at a time."""

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        *,
        generator: TelemetryGenerator | None = None,
    ) -> None:
        if generator is not None:
            config = generator.config
        self.config = config or GeneratorConfig()
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

        Each country work unit is scored in one batched matrix pass.
        Under an active tracer the run is one ``engine.run`` span and
        every slice an ``engine.generate_slice`` span.
        """
        with get_tracer().span(
            "engine.run", fingerprint=self.fingerprint, slices=len(plan)
        ):
            generator = self.generator
            produced: dict[Breakdown, RankedList] = {}
            for unit in plan.partition():
                produced.update(generator.rank_lists_batch(
                    unit.country, unit.breakdowns()
                ))
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
        dataset = BrowsingDataset(
            self.run(plan), global_distributions(), self.metadata(),
            ground_truth=self.ground_truth,
        )
        dataset.universe = self.generator.universe
        return dataset

    def ground_truth(self, dataset: BrowsingDataset) -> GroundTruth:
        """The ground-truth table for ``dataset``'s sites, in site-id
        order — the row order a save writes.

        The source engine datasets defer to: it needs the universe, so
        the generator is built (if no run has built it) only when the
        table is first read (e.g. by ``save_dataset``).
        """
        return self.generator.ground_truth(dataset.site_table().tolist())

    def __repr__(self) -> str:
        return f"GenerationEngine(fingerprint={self.fingerprint})"
