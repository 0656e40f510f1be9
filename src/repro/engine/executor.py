"""Slice executors: in-process and process-pool.

Both executors turn a :class:`~repro.engine.plan.SlicePlan` into
``{Breakdown: RankedList}`` and are required to produce *byte-identical*
output for the same :class:`~repro.synth.generator.GeneratorConfig`:
every noise component is a pure function of ``(seed, country,
component)``, so where a slice is computed cannot change what it
contains.  Both score each per-country work unit in one matrix pass
(:meth:`TelemetryGenerator.rank_lists_batch`).  :class:`SerialExecutor`
scores in process; :class:`ParallelExecutor` fans work units out to
worker processes, each of which builds (or, under ``fork``, inherits)
its own generator from the picklable config.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed

from ..core.errors import GenerationError
from ..core.rankedlist import RankedList
from ..core.types import Breakdown
from ..obs import NULL_TRACER, NullTracer, Tracer
from ..synth.generator import GeneratorConfig, TelemetryGenerator
from .plan import CountryWorkUnit, SlicePlan

#: Generators are deterministic functions of their config and carry the
#: memoised universe plus per-country state, so each process keeps one
#: per fingerprint — in workers this is the per-worker construction the
#: parallel path relies on; in the parent it lets engines share state.
_GENERATORS: dict[str, TelemetryGenerator] = {}


def generator_for(config: GeneratorConfig) -> TelemetryGenerator:
    """This process's memoised generator for ``config``."""
    fingerprint = config.fingerprint()
    generator = _GENERATORS.get(fingerprint)
    if generator is None:
        generator = TelemetryGenerator(config)
        _GENERATORS[fingerprint] = generator
    return generator


def _run_work_unit(
    config: GeneratorConfig,
    unit: CountryWorkUnit,
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> list[tuple[Breakdown, RankedList]]:
    """Worker entry point: generate every slice of one country's unit."""
    produced = generator_for(config).rank_lists_batch(
        unit.country, unit.breakdowns(), tracer=tracer
    )
    return list(produced.items())


def _run_work_unit_traced(
    config: GeneratorConfig, unit: CountryWorkUnit
) -> tuple[list[tuple[Breakdown, RankedList]], list[dict[str, object]]]:
    """Worker entry point when the parent traces: ship span dicts back.

    The worker records into its own local tracer (a forked worker must
    not touch the parent's collector through the inherited module
    global) and the parent adopts the finished spans; the pid-prefixed
    span ids keep workers' spans distinct from each other's.
    """
    tracer = Tracer(span_prefix=f"w{os.getpid()}-")
    grid = "x".join(str(extent) for extent in unit.grid_shape())
    with tracer.span("engine.work_unit", country=unit.country,
                     pid=os.getpid(), slices=len(unit), grid=grid):
        results = _run_work_unit(config, unit, tracer)
    return results, tracer.collector.drain()


class SerialExecutor:
    """In-process execution with the given (or memoised) generator."""

    name = "serial"

    def execute(
        self,
        config: GeneratorConfig,
        plan: SlicePlan,
        generator: TelemetryGenerator | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> dict[Breakdown, RankedList]:
        if generator is None:
            generator = generator_for(config)
        if tracer is None:
            tracer = NULL_TRACER
        results: dict[Breakdown, RankedList] = {}
        for unit in plan.partition():
            results.update(generator.rank_lists_batch(
                unit.country, unit.breakdowns(), tracer=tracer
            ))
        return results


class ParallelExecutor:
    """Process-pool execution, sharded by country.

    ``jobs`` bounds the worker count (default: the CPU count).  Workers
    are forked where the platform supports it so an already-built
    universe is inherited rather than rebuilt; under ``spawn`` each
    worker reconstructs its generator from the picklable config.
    Results are keyed by breakdown, so scheduling order never affects
    the output — a requirement, not an accident (see module docstring).
    Each shipped work unit is a whole country grid, which the worker
    scores in one batched matrix pass.
    """

    name = "parallel"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise GenerationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    @staticmethod
    def _context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def execute(
        self,
        config: GeneratorConfig,
        plan: SlicePlan,
        generator: TelemetryGenerator | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> dict[Breakdown, RankedList]:
        if tracer is None:
            tracer = NULL_TRACER
        units = plan.partition()
        if self.jobs == 1 or len(units) <= 1:
            return SerialExecutor().execute(
                config, plan, generator=generator, tracer=tracer
            )
        results: dict[Breakdown, RankedList] = {}
        workers = min(self.jobs, len(units))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=self._context()
        ) as pool:
            if tracer.enabled:
                # Workers trace locally and ship span dicts back with
                # their results; adopting re-parents them under the
                # caller's active span so one file covers the whole run.
                futures = [
                    pool.submit(_run_work_unit_traced, config, unit)
                    for unit in units
                ]
                for future in as_completed(futures):
                    produced, spans = future.result()
                    results.update(produced)
                    tracer.adopt(spans)
            else:
                futures = [
                    pool.submit(_run_work_unit, config, unit)
                    for unit in units
                ]
                for future in as_completed(futures):
                    results.update(future.result())
        return results
