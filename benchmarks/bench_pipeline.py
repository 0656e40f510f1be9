"""Reproduction-pipeline benchmark: serial vs threaded DAG, cold vs warm
artifact cache.

Runs the full task registry over the February full-grid dataset (the
saved fixture dataset, so generation is amortized across benchmark
sessions).  Three runs are timed:

* **serial, cold store** — the reference: every task body executes.
* **threaded, cold store** — same DAG on 4 worker threads; must emit
  byte-identical artifacts (asserted file-by-file).
* **threaded, warm store** — second run against the threaded store;
  must execute zero task bodies (asserted via the run report).

Thread-level speedup is printed but not asserted: unlike the
process-pool generation engine, pipeline tasks are a mix of
GIL-releasing numpy and pure-Python analysis, so the ratio is
machine- and workload-dependent.
"""

from __future__ import annotations

import os
import time

from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    TaskContext,
    ThreadedTaskExecutor,
    default_registry,
)

from _bench_utils import print_comparison

WORKERS = 4


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _artifact_bytes_by_name(store: ArtifactStore) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in store.root.rglob("*.json")
    }


def test_pipeline_dag(benchmark, engine, feb_dataset, tmp_path):
    registry = default_registry()
    # Pay the ground-truth table and every list decode outside every
    # timing: the dataset keeps both, so serial, threaded and warm runs
    # all measure analysis, not loading.
    feb_dataset.ground_truth()
    feb_dataset.materialize()

    ctx = TaskContext(feb_dataset, config=engine.config)
    serial_store = ArtifactStore(tmp_path / "serial")
    serial_t, serial_report = _timed(
        lambda: benchmark.pedantic(
            PipelineRunner(registry, store=serial_store).run,
            args=(ctx,), rounds=1, iterations=1,
        )
    )
    assert serial_report.failed == 0

    threaded_store = ArtifactStore(tmp_path / "threads")
    threaded_runner = PipelineRunner(
        registry, executor=ThreadedTaskExecutor(WORKERS), store=threaded_store
    )
    cold_t, cold_report = _timed(lambda: threaded_runner.run(ctx))
    assert cold_report.failed == 0
    assert cold_report.executed == serial_report.executed

    serial_bytes = _artifact_bytes_by_name(serial_store)
    threaded_bytes = _artifact_bytes_by_name(threaded_store)
    assert serial_bytes == threaded_bytes, "scheduling changed the artifacts"

    warm_t, warm_report = _timed(lambda: threaded_runner.run(ctx))
    assert warm_report.executed == 0, "warm artifact store must serve every task"
    assert warm_report.cached == cold_report.executed + cold_report.cached
    assert warm_report.results == cold_report.results

    speedup = serial_t / cold_t if cold_t > 0 else float("inf")
    cache_speedup = cold_t / warm_t if warm_t > 0 else float("inf")
    cpus = os.cpu_count() or 1
    print_comparison(
        [
            ("DAG serial (s)", "-", f"{serial_t:.2f}",
             f"{serial_report.executed} tasks executed"),
            ("DAG threaded (s)", "-", f"{cold_t:.2f}",
             f"{WORKERS} threads, {cpus} CPU(s)"),
            ("threaded speedup", "-", f"{speedup:.2f}x",
             "informational; GIL-dependent"),
            ("artifacts", "byte-identical", "byte-identical",
             f"{len(serial_bytes)} files"),
            ("warm store (s)", "-", f"{warm_t:.2f}",
             "0 task executions"),
            ("cold -> warm speedup", "> 1.0", f"{cache_speedup:.2f}x", ""),
        ],
        "Reproduction pipeline — DAG over the full grid, cold vs warm artifacts",
    )
    assert warm_t < serial_t, "warm artifact store should beat recomputation"
