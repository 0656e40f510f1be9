"""The generation engine: plan → batched scoring → dataset.

:class:`GenerationEngine` is the single entry point the generator, the
CLI and the benchmark fixtures all route through.  A plan runs in the
calling process, one batched matrix pass per country work unit
(:meth:`TelemetryGenerator.rank_lists_batch`), which yields each
slice as universe uids.  The dataset numbers its site table from those
uids with numpy, so no site name is interned.  No generator (and hence
no universe) is constructed until a run first needs one.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.dataset import BrowsingDataset, first_appearance, sorted_breakdowns
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

    def run(self, plan: SlicePlan) -> dict[Breakdown, np.ndarray]:
        """Produce every slice of ``plan`` as its ``int32`` universe
        uids, best first, in plan order.

        Each country work unit is scored in one batched matrix pass.
        Under an active tracer the run is one ``engine.run`` span and
        every slice an ``engine.generate_slice`` span.
        """
        with get_tracer().span(
            "engine.run", fingerprint=self.fingerprint, slices=len(plan)
        ):
            generator = self.generator
            produced: dict[Breakdown, np.ndarray] = {}
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
        """The dataset of ``plan``'s slices, its sites numbered by first
        appearance over :func:`sorted_breakdowns` — the numbering a save
        writes — with each site's universe uid (-1: a ccTLD variant)."""
        produced = self.run(plan)
        generator = self.generator
        order = sorted_breakdowns(produced)
        emitted = [generator.emitted_sites(b.country, produced[b]) for b in order]
        flat = np.concatenate([np.empty(0, np.int32), *emitted])
        size = int(flat.max(initial=-1)) + 1
        appear = first_appearance(emitted, size)
        number = np.empty(size, dtype=np.int32)
        number[appear] = np.arange(len(appear), dtype=np.int32)
        ids = number[flat]
        ids.setflags(write=False)
        offsets = np.cumsum([0] + [len(e) for e in emitted]).tolist()
        windows = {b: (offsets[i], len(emitted[i])) for i, b in enumerate(order)}
        names = generator.site_names(appear)
        uids = np.where(appear < generator.universe.n_sites, appear, -1).astype(np.int32)
        uids.setflags(write=False)
        dataset = BrowsingDataset.from_windows(
            {b: windows[b] for b in produced}, ids, lambda: names,
            global_distributions(), self.metadata(), uids,
        )
        dataset.universe = generator.universe
        return dataset

    def __repr__(self) -> str:
        return f"GenerationEngine(fingerprint={self.fingerprint})"
