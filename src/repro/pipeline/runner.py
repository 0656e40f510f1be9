"""DAG runner: topological waves, per-task isolation, artifact reuse.

The runner walks the registry's deterministic topological order in
*waves*: every task whose dependencies are satisfied runs in the
current wave, and the wave is handed to an executor —
:class:`SerialTaskExecutor` (the reference) or
:class:`ThreadedTaskExecutor` (a thread pool; analyses share the
loaded dataset, so threads beat processes, and the numpy-heavy bodies
release the GIL for the hot parts).  Mirroring the generation engine's
serial/parallel contract, results are keyed by task name and written
back in sorted order from the coordinating thread, so scheduling can
never change what a run produces: parallel runs emit byte-identical
artifacts to serial runs.

Failure is isolated per task: a body that raises marks the task
``failed`` (error recorded), a body that raises
:class:`TaskUnavailable` marks it ``skipped``, and either way every
transitive dependent is ``skipped`` with a reason — the rest of the
DAG keeps running.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..core.dataset import BrowsingDataset
from ..core.errors import PipelineError, TaskUnavailable
from ..core.types import Month
from ..obs import get_tracer
from .artifacts import ArtifactStore, encode_artifact
from .context import TaskContext
from .registry import TaskRegistry
from .task import Task, TaskRecord, TaskStatus

#: What executing one task body yields: (status, result, error, seconds).
Outcome = tuple[TaskStatus, object, str | None, float]


def _call(task: Task, ctx: TaskContext, inputs: dict[str, object]) -> Outcome:
    """Run one task body, converting every exception into an outcome."""
    start = time.perf_counter()
    try:
        result = task.fn(ctx, inputs)
    except TaskUnavailable as exc:
        return (TaskStatus.SKIPPED, None, str(exc), time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        error = f"{type(exc).__name__}: {exc}"
        return (TaskStatus.FAILED, None, error, time.perf_counter() - start)
    return (TaskStatus.OK, result, None, time.perf_counter() - start)


class SerialTaskExecutor:
    """In-thread wave execution — the reference implementation."""

    name = "serial"

    def run_wave(
        self, wave: list[tuple[str, Callable[[], Outcome]]]
    ) -> dict[str, Outcome]:
        return {name: thunk() for name, thunk in wave}


class ThreadedTaskExecutor:
    """Thread-pool wave execution for independent analyses."""

    name = "threads"

    def __init__(self, jobs: int | None = None) -> None:
        import os

        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run_wave(
        self, wave: list[tuple[str, Callable[[], Outcome]]]
    ) -> dict[str, Outcome]:
        if self.jobs == 1 or len(wave) <= 1:
            return SerialTaskExecutor().run_wave(wave)
        with ThreadPoolExecutor(max_workers=min(self.jobs, len(wave))) as pool:
            futures = {name: pool.submit(thunk) for name, thunk in wave}
            return {name: future.result() for name, future in futures.items()}


@dataclass
class RunReport:
    """Everything one pipeline run produced and recorded."""

    fingerprint: str
    order: tuple[str, ...]
    records: dict[str, TaskRecord] = field(default_factory=dict)
    results: dict[str, object] = field(default_factory=dict)
    #: Each result's exact artifact bytes, as stored (or read back).
    artifacts: dict[str, bytes] = field(default_factory=dict)

    def count(self, status: TaskStatus) -> int:
        return sum(1 for r in self.records.values() if r.status is status)

    @property
    def executed(self) -> int:
        """Tasks whose bodies actually ran this time (cache misses)."""
        return self.count(TaskStatus.OK)

    @property
    def cached(self) -> int:
        return self.count(TaskStatus.CACHED)

    @property
    def failed(self) -> int:
        return self.count(TaskStatus.FAILED)

    @property
    def skipped(self) -> int:
        return self.count(TaskStatus.SKIPPED)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "order": list(self.order),
            "counts": {
                "executed": self.executed,
                "cached": self.cached,
                "failed": self.failed,
                "skipped": self.skipped,
            },
            "tasks": {name: rec.to_dict() for name, rec in self.records.items()},
        }


class PipelineRunner:
    """Cache-aware DAG execution over a task registry."""

    def __init__(
        self,
        registry: TaskRegistry,
        *,
        executor: SerialTaskExecutor | ThreadedTaskExecutor | None = None,
        store: ArtifactStore | str | Path | None = None,
    ) -> None:
        self.registry = registry
        self.executor = executor or SerialTaskExecutor()
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store = store

    def run(
        self,
        ctx: TaskContext,
        tasks: Iterable[str] | None = None,
    ) -> RunReport:
        tracer = get_tracer()
        with tracer.span(
            "pipeline.run", fingerprint=ctx.fingerprint
        ) as root:
            report = self._run(ctx, tasks, tracer)
            root.set("tasks", len(report.order))
            root.add("executed", report.executed)
            root.add("cached", report.cached)
            root.add("failed", report.failed)
            root.add("skipped", report.skipped)
            return report

    def _run(self, ctx, tasks, tracer) -> RunReport:
        store_outcome = "miss" if self.store is not None else "off"
        order = self.registry.topological_order(tasks)
        report = RunReport(fingerprint=ctx.fingerprint, order=order)
        for name in order:
            report.records[name] = TaskRecord(name, TaskStatus.SKIPPED)

        pending = list(order)
        done: set[str] = set()
        while pending:
            wave_names = [
                name for name in pending
                if all(d in done or d not in order
                       for d in self.registry.get(name).deps)
            ]
            if not wave_names:  # pragma: no cover - topo order precludes it
                raise PipelineError(f"scheduler stuck with pending {pending}")
            # Tasks whose in-run dependency already resolved badly are
            # settled immediately; the rest form the executable wave.
            runnable: list[tuple[str, Callable[[], Outcome]]] = []
            for name in wave_names:
                task = self.registry.get(name)
                bad = [
                    d for d in task.deps
                    if d in order and report.records[d].status
                    in (TaskStatus.FAILED, TaskStatus.SKIPPED)
                ]
                if bad:
                    report.records[name] = TaskRecord(
                        name, TaskStatus.SKIPPED,
                        error=f"dependency {bad[0]!r} "
                              f"{report.records[bad[0]].status.value}",
                    )
                    tracer.record(
                        "pipeline.task", 0.0, task=name,
                        status=TaskStatus.SKIPPED.value, reason="dependency",
                    )
                    continue
                # Dependencies settled in earlier waves, so their result
                # digests are known here; folding them into the key
                # gives Merkle-style early cutoff (see Task.key).
                dep_digests = {
                    d: report.records[d].digest
                    for d in task.deps
                    if d in report.records and report.records[d].digest
                }
                try:
                    key = task.key(ctx, dep_digests)
                except TaskUnavailable as exc:
                    report.records[name] = TaskRecord(
                        name, TaskStatus.SKIPPED, error=str(exc)
                    )
                    tracer.record(
                        "pipeline.task", 0.0, task=name,
                        status=TaskStatus.SKIPPED.value, reason="unavailable",
                    )
                    continue
                if self.store is not None:
                    lookup = time.perf_counter()
                    cached = self.store.get(ctx.fingerprint, name, key)
                    if cached is not None:
                        report.records[name] = TaskRecord(
                            name, TaskStatus.CACHED, key=key,
                            digest=cached.digest,
                        )
                        report.results[name] = cached.result
                        report.artifacts[name] = cached.data
                        tracer.record(
                            "pipeline.task",
                            time.perf_counter() - lookup,
                            task=name, status=TaskStatus.CACHED.value,
                            store="hit",
                        )
                        continue
                inputs = {d: report.results[d] for d in task.deps}
                runnable.append((
                    name,
                    (lambda t=task, i=inputs: _call(t, ctx, i)),
                ))
                report.records[name] = TaskRecord(name, TaskStatus.OK, key=key)

            outcomes = self.executor.run_wave(runnable)
            # Settle and write back in sorted order from this thread so
            # artifacts are independent of scheduling.
            for name in sorted(outcomes):
                status, result, error, seconds = outcomes[name]
                record = report.records[name]
                record.status = status
                record.error = error
                record.seconds = seconds
                if status is TaskStatus.OK:
                    artifact = encode_artifact(name, record.key, result)
                    report.results[name] = result
                    report.artifacts[name] = artifact.data
                    record.digest = artifact.digest
                    if self.store is not None:
                        self.store.put(
                            ctx.fingerprint, name, record.key, artifact.data
                        )
                tracer.record(
                    "pipeline.task", seconds,
                    task=name, status=status.value, store=store_outcome,
                )

            done.update(wave_names)
            pending = [n for n in pending if n not in done]
        return report


def run_pipeline(
    dataset: BrowsingDataset,
    tasks: Iterable[str] | None = None,
    *,
    registry: TaskRegistry | None = None,
    jobs: int = 1,
    store: ArtifactStore | str | Path | None = None,
    config: object | None = None,
    month: Month | None = None,
) -> RunReport:
    """One-call pipeline run: the registry's tasks over ``dataset``.

    ``store`` accepts a path or an :class:`ArtifactStore`.
    """
    if registry is None:
        from .tasks import default_registry

        registry = default_registry()
    executor = ThreadedTaskExecutor(jobs) if jobs > 1 else SerialTaskExecutor()
    runner = PipelineRunner(registry, executor=executor, store=store)
    ctx = TaskContext(dataset, config=config, month=month)
    return runner.run(ctx, tasks)
