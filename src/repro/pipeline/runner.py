"""DAG runner: one thread, per-task isolation, artifact reuse.

The runner walks the registry's deterministic topological order in the
calling thread, one task at a time.  Each task runs inside one
``pipeline.task`` span that encloses its key, its artifact-store
lookup, its body, the result's encoding and the store write, so every
span the task causes (kernels, Fisher batches, slice decodes) nests
under it.

Failure is isolated per task: a body that raises marks the task
``failed`` (error recorded), a body that raises
:class:`TaskUnavailable` marks it ``skipped``, and either way every
transitive dependent is ``skipped`` with a reason — the rest of the
DAG keeps running.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..core.dataset import BrowsingDataset
from ..core.errors import TaskUnavailable
from ..core.types import Month
from ..obs import get_tracer
from .artifacts import ArtifactStore, encode_artifact
from .context import TaskContext
from .registry import TaskRegistry
from .task import Task, TaskRecord, TaskStatus


def _call(
    task: Task, ctx: TaskContext, inputs: dict[str, object]
) -> tuple[TaskStatus, object, str | None, float]:
    """Run one task body: (status, result, error, seconds), never raising."""
    start = time.perf_counter()
    try:
        result = task.fn(ctx, inputs)
    except TaskUnavailable as exc:
        return (TaskStatus.SKIPPED, None, str(exc), time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        error = f"{type(exc).__name__}: {exc}"
        return (TaskStatus.FAILED, None, error, time.perf_counter() - start)
    return (TaskStatus.OK, result, None, time.perf_counter() - start)


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
        store: ArtifactStore | str | Path | None = None,
    ) -> None:
        self.registry = registry
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
            order = self.registry.topological_order(tasks)
            report = RunReport(fingerprint=ctx.fingerprint, order=order)
            for name in order:
                with tracer.span("pipeline.task", task=name) as span:
                    record = self._settle(
                        self.registry.get(name), ctx, report, span
                    )
                    report.records[name] = record
                    span.set("status", record.status.value)
            root.set("tasks", len(report.order))
            root.add("executed", report.executed)
            root.add("cached", report.cached)
            root.add("failed", report.failed)
            root.add("skipped", report.skipped)
            return report

    def _settle(
        self, task: Task, ctx: TaskContext, report: RunReport, span
    ) -> TaskRecord:
        """Run or reuse one task whose dependencies are all settled.

        Fills ``report.results``/``report.artifacts`` for a usable
        result and returns the task's record; ``span`` gets the
        ``reason`` of a skip or the ``store`` outcome.
        """
        name = task.name
        bad = [
            d for d in task.deps
            if report.records[d].status
            in (TaskStatus.FAILED, TaskStatus.SKIPPED)
        ]
        if bad:
            span.set("reason", "dependency")
            return TaskRecord(
                name, TaskStatus.SKIPPED,
                error=f"dependency {bad[0]!r} "
                      f"{report.records[bad[0]].status.value}",
            )
        # Folding the dependencies' result digests into the key gives
        # Merkle-style early cutoff (see Task.key).
        dep_digests = {
            d: report.records[d].digest
            for d in task.deps if report.records[d].digest
        }
        try:
            key = task.key(ctx, dep_digests)
        except TaskUnavailable as exc:
            span.set("reason", "unavailable")
            return TaskRecord(name, TaskStatus.SKIPPED, error=str(exc))
        if self.store is not None:
            cached = self.store.get(ctx.fingerprint, name, key)
            if cached is not None:
                span.set("store", "hit")
                report.results[name] = cached.result
                report.artifacts[name] = cached.data
                return TaskRecord(
                    name, TaskStatus.CACHED, key=key, digest=cached.digest
                )
        span.set("store", "miss" if self.store is not None else "off")
        status, result, error, seconds = _call(
            task, ctx, {d: report.results[d] for d in task.deps}
        )
        record = TaskRecord(
            name, status, seconds=seconds, error=error, key=key
        )
        if status is TaskStatus.OK:
            artifact = encode_artifact(name, key, result)
            report.results[name] = result
            report.artifacts[name] = artifact.data
            record.digest = artifact.digest
            if self.store is not None:
                self.store.put(ctx.fingerprint, name, key, artifact.data)
        return record


def run_pipeline(
    dataset: BrowsingDataset,
    tasks: Iterable[str] | None = None,
    *,
    registry: TaskRegistry | None = None,
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
    runner = PipelineRunner(registry, store=store)
    ctx = TaskContext(dataset, config=config, month=month)
    return runner.run(ctx, tasks)
