"""Generation-engine benchmark: per-slice vs batched scoring.

Times the full study grid — 45 countries × 2 platforms × 3 metrics × 6
months (1620 slices, December included) — through the plan/execute
engine on the *small* universe, so the bench runs anywhere; the
mechanics being measured — one matrix pass per country grid, keyed
component reuse, memoised privacy cutoffs — are scale-independent.

Two scoring paths are timed from equally cold generator state (the
process-level generator memo is dropped before each run; the universe
build is paid once up front, outside all timings):

* per-slice (:func:`tests.oracles.scorer.execute_reference`) — the
  byte-identity oracle, scoring one breakdown at a time;
* batched (:meth:`GenerationEngine.generate_plan`) — the engine's one
  path, scoring each country in one pass and numbering the emitted
  sites into a dataset, asserted ≥ 3× the per-slice baseline and
  byte-identical to it.

Results land in ``BENCH_engine.json`` next to the other CI artifacts.
"""

from __future__ import annotations

import os
import time

from repro.core import Metric, Platform, STUDY_MONTHS
from repro.engine import GenerationEngine, SlicePlan
from repro.engine.engine import _GENERATORS
from repro.synth import GeneratorConfig, TelemetryGenerator
from repro.synth.universe import build_universe
from tests.oracles.scorer import execute_reference

from _bench_utils import print_comparison, write_bench_json

MIN_BATCH_SPEEDUP = 3.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_engine_full_grid(benchmark):
    config = GeneratorConfig.small()
    plan = SlicePlan.from_grid(
        platforms=Platform.studied(),
        metrics=(
            Metric.PAGE_LOADS,
            Metric.TIME_ON_PAGE,
            Metric.INITIATED_PAGE_LOADS,
        ),
        months=STUDY_MONTHS,
    )
    assert len(plan) == 45 * 2 * 3 * 6
    # Pay the universe build once, outside every timing below; each
    # scoring run then starts from identical cold per-country state.
    build_universe(config.resolved_universe())

    perslice_t, perslice_lists = _timed(
        lambda: execute_reference(TelemetryGenerator(config), plan)
    )

    _GENERATORS.pop(config.fingerprint(), None)
    batched_engine = GenerationEngine(config)
    batched_t, batched_lists = _timed(
        lambda: benchmark.pedantic(
            batched_engine.generate_plan, args=(plan,), rounds=1, iterations=1
        )
    )

    assert set(perslice_lists) == set(batched_lists.breakdowns())
    for breakdown, ranked in perslice_lists.items():
        assert ranked.sites == batched_lists[breakdown].sites, breakdown

    batch_speedup = perslice_t / batched_t if batched_t > 0 else float("inf")
    print_comparison(
        [
            ("per-slice serial (s)", "-", f"{perslice_t:.2f}",
             f"{len(plan)} slices, small universe"),
            ("batched serial (s)", "-", f"{batched_t:.2f}",
             "one matrix pass per country grid"),
            ("batched speedup", f">= {MIN_BATCH_SPEEDUP:.1f}",
             f"{batch_speedup:.2f}x", "asserted, byte-identical"),
        ],
        "Generation engine — full grid: per-slice vs batched",
    )

    write_bench_json("engine", {
        "grid": {
            "countries": 45, "platforms": 2, "metrics": 3, "months": 6,
            "slices": len(plan), "list_size": config.list_size,
        },
        "per_slice_serial_s": round(perslice_t, 4),
        "batched_serial_s": round(batched_t, 4),
        "batched_speedup": round(batch_speedup, 2),
        "min_batched_speedup": MIN_BATCH_SPEEDUP,
        "cpus": os.cpu_count() or 1,
    })

    assert batch_speedup >= MIN_BATCH_SPEEDUP, (
        f"expected >= {MIN_BATCH_SPEEDUP}x batched speedup on the full "
        f"grid, got {batch_speedup:.2f}x"
    )
