"""Reproduction-pipeline benchmark: cold vs warm artifact store.

Runs the full task registry over the February full-grid dataset (the
saved fixture dataset, so generation is amortized across benchmark
sessions).  Two runs are timed:

* **cold store** — every task body executes.
* **warm store** — a second run against the same store; must execute
  zero task bodies (asserted via the run report) and beat the cold run.
"""

from __future__ import annotations

import time

from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    TaskContext,
    default_registry,
)

from _bench_utils import print_comparison


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_pipeline_dag(benchmark, engine, feb_dataset, tmp_path):
    # Pay every list decode outside every timing: the dataset keeps
    # them, so the cold and warm runs measure analysis, not loading.
    feb_dataset.materialize()

    ctx = TaskContext(feb_dataset, config=engine.config)
    runner = PipelineRunner(
        default_registry(), store=ArtifactStore(tmp_path / "store")
    )
    cold_t, cold_report = _timed(
        lambda: benchmark.pedantic(
            runner.run, args=(ctx,), rounds=1, iterations=1
        )
    )
    assert cold_report.failed == 0

    warm_t, warm_report = _timed(lambda: runner.run(ctx))
    assert warm_report.executed == 0, "warm artifact store must serve every task"
    assert warm_report.cached == cold_report.executed + cold_report.cached
    assert warm_report.results == cold_report.results

    cache_speedup = cold_t / warm_t if warm_t > 0 else float("inf")
    print_comparison(
        [
            ("cold store (s)", "-", f"{cold_t:.2f}",
             f"{cold_report.executed} tasks executed"),
            ("warm store (s)", "-", f"{warm_t:.2f}",
             "0 task executions"),
            ("cold -> warm speedup", "> 1.0", f"{cache_speedup:.2f}x", ""),
        ],
        "Reproduction pipeline — DAG over the full grid, cold vs warm artifacts",
    )
    assert warm_t < cold_t, "warm artifact store should beat recomputation"
